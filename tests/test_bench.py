import dataclasses
from pathlib import Path

import numpy as np
import pytest

from matchbench.bench import (
    CORPUS_EXPECTATIONS,
    BenchConfig,
    Measurement,
    derive_seed,
    generate_rand_text,
    load_corpus,
    run_benchmark,
    sample_patterns,
    sample_positions,
)
from matchbench.core import InstrumentedText, Pattern, Text, brute_force_search
from matchbench.registry import REGISTRY, get_algorithm
from matchbench.report import render_table


def test_generate_rand_text_range_and_determinism():
    t = generate_rand_text(2, 8, seed=1)
    assert len(t) == 8
    assert set(t.data) <= {0, 1}
    assert t.id == "rand2"
    again = generate_rand_text(2, 8, seed=1)
    assert again.data == t.data
    assert generate_rand_text(2, 8, seed=2).data != t.data


def test_generate_rand_text_sigma_validation():
    with pytest.raises(ValueError):
        generate_rand_text(3, 10, seed=1)
    t = generate_rand_text(3, 1000, seed=1, allow_any_sigma=True)
    assert set(t.data) <= {0, 1, 2}
    with pytest.raises(ValueError):
        generate_rand_text(0, 10, seed=1, allow_any_sigma=True)
    with pytest.raises(ValueError):
        generate_rand_text(2, 0, seed=1)


def test_generate_rand_text_frequencies():
    t = generate_rand_text(4, 10**6, seed=3)
    counts = np.bincount(np.frombuffer(t.data, dtype=np.uint8), minlength=4)
    freqs = counts / len(t)
    assert np.all(np.abs(freqs - 0.25) < 0.005)


def test_load_corpus_roundtrip(tmp_path):
    path = tmp_path / "sample.bin"
    path.write_bytes(b"mississippi")
    t = load_corpus(path)
    assert t.id == "sample"
    assert t.data == b"mississippi"
    assert t.alphabet_size() == 4
    with pytest.raises(FileNotFoundError):
        load_corpus(tmp_path / "missing.bin")


def test_load_corpus_expectations(tmp_path):
    # matching edition: silent
    n, sigma = CORPUS_EXPECTATIONS["ecoli"]
    good = tmp_path / "ecoli"
    good.write_bytes(generate_rand_text(sigma, n, seed=5).data)
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        t = load_corpus(good)
    assert len(t) == n

    # a short edition warns but still loads
    bad = tmp_path / "bible"
    bad.write_bytes(b"in the beginning")
    with pytest.warns(UserWarning) as record:
        t = load_corpus(bad)
    assert any("expected n=" in str(w.message) for w in record)
    assert len(t) == 16


def test_sample_patterns_deterministic_and_extracted():
    text = generate_rand_text(4, 5000, seed=7)
    pats = sample_patterns(text, 8, 20, seed=9)
    assert pats == sample_patterns(text, 8, 20, seed=9)
    assert all(len(p) == 8 for p in pats)
    for p in pats:
        assert p.data in text.data
    whole = sample_patterns(text, len(text), 3, seed=9)
    assert all(p.data == text.data for p in whole)
    with pytest.raises(ValueError):
        sample_patterns(text, len(text) + 1, 1, seed=9)


def test_sampled_position_appears_in_search_result():
    rng = np.random.default_rng(11)
    checked = 0
    for seed in range(25):
        sigma = int(rng.choice([2, 4, 64]))
        text = generate_rand_text(sigma, 2000, seed=seed)
        m = int(rng.choice([2, 5, 16, 64]))
        positions = sample_positions(text, m, 40, seed=seed + 1)
        patterns = sample_patterns(text, m, 40, seed=seed + 1)
        for pos, pat in zip(positions, patterns):
            assert pos in brute_force_search(pat, text)
            checked += 1
    assert checked == 1000


def test_bench_config_validation():
    for kwargs, message in [
        (dict(lengths=(4, 2)), "lengths must be strictly increasing"),
        (dict(lengths=(2, 2)), "lengths must be strictly increasing"),
        (dict(lengths=()), "lengths must be non-empty"),
        (dict(lengths=(0, 4)), "pattern lengths must be >= 1"),
        (dict(patterns_per_length=0), "patterns_per_length must be >= 1"),
        (dict(metric="cycles"), r"metric must be one of \('time', 'reads'\)"),
    ]:
        with pytest.raises(ValueError, match=message):
            BenchConfig(**kwargs)


MEASUREMENT_FIELDS = dict(text_id="rand4", sigma=4, family="comparison", algorithm="HOR", m=8,
                          runs=3, mean_value=12.5, stddev=0.5, mean_occurrences=1.0, metric="reads")


@pytest.mark.parametrize("positional, keyword, other, shown", [
    ((b"ab", "t"), dict(data=bytearray(b"ab"), id="t"), Text(b"ab", "u"), "Text(data=b'ab', id='t')"),
    ((b"ab",), dict(data=memoryview(b"ab")), Pattern(b"ba"), "Pattern(data=b'ab')"),
    (((2, 8), 3, 5, "reads"), dict(lengths=[2, 8], patterns_per_length=3, seed=5, metric="reads"),
     BenchConfig(), "BenchConfig(lengths=(2, 8), patterns_per_length=3, seed=5, metric='reads')"),
    (tuple(MEASUREMENT_FIELDS.values()), MEASUREMENT_FIELDS, Measurement(**{**MEASUREMENT_FIELDS, "m": 9}),
     "Measurement(text_id='rand4', sigma=4, family='comparison', algorithm='HOR', m=8, runs=3,"
     " mean_value=12.5, stddev=0.5, mean_occurrences=1.0, metric='reads')"),
])
def test_value_types_keep_the_frozen_dataclass_contract(positional, keyword, other, shown):
    # the value types are immutable records: positional and keyword
    # construction agree (bytes-like data and a lengths list are converted),
    # no field can be set or deleted, and eq, hash and repr are what a frozen
    # dataclass defines
    cls = type(other)
    a, b = cls(*positional), cls(**keyword)
    assert a == b and hash(a) == hash(b)
    assert a != other and a != positional
    assert repr(a) == repr(b) == shown
    for field in keyword:
        with pytest.raises(AttributeError):
            setattr(a, field, getattr(other, field))
        with pytest.raises(AttributeError):
            delattr(a, field)
    assert a == b


def test_value_types_defaults_and_type_errors():
    assert Text(b"x") == Text(b"x", "text") != Pattern(b"x")
    assert BenchConfig() == BenchConfig((2, 4, 8, 16, 32, 64, 128, 256, 512, 1024), 400, 1, "time")
    with pytest.raises(TypeError):
        Text("abc")
    with pytest.raises(TypeError):
        Measurement(**MEASUREMENT_FIELDS, extra=1)


def test_run_benchmark_reads_so_is_one_pass():
    text = generate_rand_text(4, 10**6, seed=13)
    cfg = BenchConfig(lengths=(8,), patterns_per_length=2, seed=1, metric="reads")
    (ms,) = run_benchmark(cfg, [text], [get_algorithm("SO")])
    assert ms.mean_value == 10**6
    assert ms.stddev == 0
    assert ms.runs == 2
    assert ms.mean_occurrences >= 1
    assert ms.metric == "reads"


def test_run_benchmark_applicability_cells_omitted():
    text = generate_rand_text(4, 4096, seed=15)
    cfg = BenchConfig(lengths=(2, 4, 8), patterns_per_length=2, seed=1, metric="reads")
    ms = run_benchmark(cfg, [text], [get_algorithm("HASH8")])
    assert [m.m for m in ms] == [8]
    ms = run_benchmark(cfg, [text], [get_algorithm("SSEF")])
    assert ms == []


def test_run_benchmark_skips_lengths_beyond_text():
    text = generate_rand_text(4, 64, seed=15)
    cfg = BenchConfig(lengths=(32, 128), patterns_per_length=2, seed=1, metric="reads")
    ms = run_benchmark(cfg, [text], [get_algorithm("HOR")])
    assert [m.m for m in ms] == [32]


def test_run_benchmark_samples_each_text_even_when_ids_repeat():
    # both texts carry the default id "text"; each must get patterns drawn
    # from itself, so every sampled pattern occurs at least once
    texts = [Text(b"ab" * 500), Text(bytes(range(256)) * 4)]
    cfg = BenchConfig(lengths=(4,), patterns_per_length=3, metric="reads")
    ms = run_benchmark(cfg, texts, [get_algorithm("HOR")])
    assert [m.sigma for m in ms] == [2, 256]
    assert all(m.mean_occurrences >= 1 for m in ms)


@pytest.mark.parametrize("metric, calls", [
    ("time", ["compile", bytes, bytes]),  # untimed warm-up, then the timed run
    ("reads", ["compile", InstrumentedText]),
])
def test_measurement_protocol_per_metric(metric, calls):
    log = []
    hor = get_algorithm("HOR")

    def compile_(p):
        log.append("compile")
        run = hor.compile(p)

        def logged(hay):
            log.append(type(hay))
            return run(hay)

        return logged

    algo = dataclasses.replace(hor, compile=compile_)
    cfg = BenchConfig(lengths=(4,), patterns_per_length=3, seed=1, metric=metric)
    (ms,) = run_benchmark(cfg, [generate_rand_text(4, 4096, seed=5)], [algo])
    assert log == calls * 3
    assert ms.runs == 3 and ms.mean_occurrences >= 1


def test_run_benchmark_reads_deterministic():
    text = generate_rand_text(8, 50_000, seed=17)
    cfg = BenchConfig(lengths=(4, 16), patterns_per_length=3, seed=21, metric="reads")
    first = run_benchmark(cfg, [text])
    second = run_benchmark(cfg, [text])
    assert first == second


def test_run_benchmark_reads_csv_matches_golden():
    # reads are exact, so a reads-mode CSV stays byte-identical unless a
    # searcher is meant to change what it reads
    cfg = BenchConfig(lengths=(2, 8, 32, 64), patterns_per_length=3, seed=7, metric="reads")
    csv_text = render_table(run_benchmark(cfg, [generate_rand_text(8, 8192, seed=7)]), "csv")
    assert csv_text == (Path(__file__).parent / "data" / "golden_reads.csv").read_text()


def test_derive_seed_stable():
    assert derive_seed(1, "rand2", 8) == derive_seed(1, "rand2", 8)
    assert derive_seed(1, "rand2", 8) != derive_seed(1, "rand2", 16)

