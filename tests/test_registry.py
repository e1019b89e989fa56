import hashlib
import itertools
import random

import numpy as np
import pytest

from matchbench.bench import generate_rand_text, sample_patterns
from matchbench.comparison import kmp_failure
from matchbench.core import (
    W,
    ApplicabilityError,
    InstrumentedText,
    Pattern,
    Text,
    brute_force_search,
)
from matchbench.registry import (
    DEFAULT_SELECTION_MAP,
    M_CLASSES,
    REGISTRY,
    SIGMA_CLASSES,
    applicable_algorithms,
    classify,
    _periodic_half,
    get_algorithm,
    periodic_needle,
    select,
    select_applicable,
)

from conftest import Recorder, find_all, fuzz_cases, naive_scan, rand_bytes

FAMILY_BY_ID = {
    # character comparison based
    "HOR": "comparison", "QS": "comparison", "BR": "comparison",
    "TVSBS": "comparison", "FJS": "comparison", "HASH3": "comparison",
    "HASH5": "comparison", "HASH8": "comparison", "SSEF": "comparison",
    # deterministic automata based
    "BOM": "automata", "EBOM": "automata",
    # bit parallel
    "SO": "bit-parallel", "SA": "bit-parallel", "BNDM": "bit-parallel",
    "SBNDM": "bit-parallel", "LBNDM": "bit-parallel",
    "SBNDM-BMH": "bit-parallel", "BMH-SBNDM": "bit-parallel",
    "FSBNDM": "bit-parallel", "SBNDMq2": "bit-parallel",
    "SBNDMq4": "bit-parallel", "SBNDMq6": "bit-parallel",
    "SBNDMq8": "bit-parallel",
}


def test_registry_families_and_unique_ids():
    assert len({a.id for a in REGISTRY}) == len(REGISTRY) == len(FAMILY_BY_ID)
    for algo in REGISTRY:
        assert algo.family == FAMILY_BY_ID[algo.id]


def test_get_algorithm_case_insensitive():
    assert get_algorithm("ebom").id == "EBOM"
    assert get_algorithm("sbndmq4").id == "SBNDMq4"
    with pytest.raises(KeyError):
        get_algorithm("KMP")


# The paper's class bounds, restated as the reference classify must match:
# inclusive m range per class (None = unbounded), and sigma < 4 / < 32 /
# < 128 / beyond.
M_CLASS_RANGES = {
    "very_short": (1, 4),
    "short": (5, 32),
    "long": (33, 256),
    "very_long": (257, None),
}


def reference_classes(sigma: int, m: int) -> tuple[str, str]:
    mc = next(c for c, (lo, hi) in M_CLASS_RANGES.items() if lo <= m and (hi is None or m <= hi))
    if sigma < 4:
        sc = "very_small"
    elif sigma < 32:
        sc = "small"
    elif sigma < 128:
        sc = "large"
    else:
        sc = "very_large"
    return sc, mc


def test_classify_boundaries():
    assert classify(2, 2) == classify(3, 4)
    assert classify(2, 2) == ("very_small", "very_short")
    assert classify(4, 4) == ("small", "very_short")
    assert classify(128, 257) == ("very_large", "very_long")
    assert classify(32, 5) == ("large", "short")
    assert classify(127, 32) == ("large", "short")
    assert classify(1, 33) == ("very_small", "long")
    with pytest.raises(ValueError):
        classify(0, 4)
    with pytest.raises(ValueError):
        classify(257, 4)
    with pytest.raises(ValueError):
        classify(4, 0)


def test_classify_matches_reference_everywhere():
    for sigma in range(1, 257):
        for m in range(1, 3000):
            assert classify(sigma, m) == reference_classes(sigma, m), (sigma, m)


def test_select_published_winners():
    assert select(2, 2).id == "SA"
    assert select(64, 512).id == "SSEF"
    assert select(2, 16).id == "HASH5"
    assert select(64, 4).id == "FJS"
    assert select(64, 8).id == "EBOM"
    assert select(8, 16).id.startswith("HASH")
    assert select(256, 512).id == "LBNDM"


def test_selection_map_total_and_applicable_somewhere():
    for sc in SIGMA_CLASSES:
        for mc in M_CLASSES:
            cell = DEFAULT_SELECTION_MAP.cell(sc, mc)
            algo = get_algorithm(cell.algorithm)
            lo, hi = M_CLASS_RANGES[mc]
            eff_hi = algo.m_max if algo.m_max is not None else (hi if hi is not None else lo)
            applicable_somewhere = algo.m_min <= (hi if hi is not None else eff_hi) and (
                algo.m_max is None or algo.m_max >= lo
            )
            assert applicable_somewhere, f"{cell.algorithm} never applicable in ({sc},{mc})"
            assert cell.provenance in ("paper-stated", "derived-fill")
            for alt in cell.alternates:
                get_algorithm(alt)


def test_select_invariant_within_cell():
    # select depends only on the classified cell
    assert select(2, 1).id == select(3, 4).id
    assert select(33, 33).id == select(127, 256).id
    assert select(128, 300).id == select(256, 5000).id


def test_selected_algorithm_passes_oracle_inside_cell():
    # sample a point of each cell where the winner is applicable
    sample_m = {"very_short": 4, "short": 16, "long": 48, "very_long": 300}
    sample_sigma = {"very_small": 2, "small": 8, "large": 64, "very_large": 256}
    for sc in SIGMA_CLASSES:
        for mc in M_CLASSES:
            sigma, m = sample_sigma[sc], sample_m[mc]
            algo = select(sigma, m)
            if not algo.applicable(m):
                lo, _ = M_CLASS_RANGES[mc]
                m = max(lo, algo.m_min)
            assert algo.applicable(m)
            text = generate_rand_text(sigma, 4096, seed=97)
            for pattern in sample_patterns(text, m, 5, seed=98):
                assert algo.search(pattern, text) == brute_force_search(pattern, text)


def test_select_applicable_falls_back_inside_gated_cells():
    # (large, long) defaults to FSBNDM which is word-gated above W - 1
    assert select(64, 48).id == "FSBNDM"
    assert select_applicable(64, 48).id == "FSBNDM"
    fallback = select_applicable(64, 200)
    assert fallback.applicable(200)
    assert fallback.id == "TVSBS"  # the cell's alternate
    assert select_applicable(256, 200).id == "HOR"  # fallback


def test_select_applicable_is_cell_entry_or_hor():
    for sigma in range(1, 257):
        for m in (*range(1, 71), 100, 200, 256, 257, 300, 1024):
            cell = DEFAULT_SELECTION_MAP.cell(*classify(sigma, m))
            algo = select_applicable(sigma, m)
            assert algo.applicable(m)
            assert algo.id in (cell.algorithm, *cell.alternates, "HOR"), (sigma, m, algo.id)
            if get_algorithm(cell.algorithm).applicable(m):
                assert algo.id == cell.algorithm


def _reference_periodic_half(u: bytes) -> bool:
    # the smallest period of u is h minus its longest proper border
    h = len(u)
    return h >= 1 and h - kmp_failure(u)[h] <= h // 4


def _periodic_strings():
    for sigma, n_max in ((2, 12), (3, 8)):
        for n in range(n_max + 1):
            yield from map(bytes, itertools.product(range(sigma), repeat=n))
    # long strings: a random period repeated, then maybe one character changed
    rng = random.Random(61)
    for _ in range(1500):
        n = rng.randint(8, 1024)
        u = bytearray(rng.randbytes(rng.randint(1, n // 2)).translate(bytes(b % 3 for b in range(256))) * n)[:n]
        if rng.random() < 0.5:
            u[rng.randrange(n)] ^= 1
        yield bytes(u)


def test_periodic_needle_matches_the_kmp_period():
    for u in _periodic_strings():
        assert _periodic_half(u) == _reference_periodic_half(u), u
        h = len(u) // 2
        expected = h >= 4 and (_reference_periodic_half(u[:h]) or _reference_periodic_half(u[-h:]))
        assert periodic_needle(u) == expected, u


def _fibonacci_word(n: int) -> bytes:
    a, b = b"a", b"ab"
    while len(b) < n:
        a, b = b, b + a
    return b[:n]


def _atlas_needles(t: bytes, m: int):
    # a factor, the factor with its first, middle or last character
    # changed, and a^(m-1)b and ba^(m-1) for t's most frequent character a
    factor = t[len(t) // 2 : len(t) // 2 + m]
    yield factor
    for i in (0, m // 2, m - 1):
        near = bytearray(factor)
        near[i] ^= 1
        yield bytes(near)
    a = max(sorted(set(t)), key=t.count)
    yield bytes([a]) * (m - 1) + bytes([a ^ 1])
    yield bytes([a ^ 1]) + bytes([a]) * (m - 1)


def test_auto_reads_stay_linear_on_the_periodic_atlas():
    # the shift and filter scans read Theta(m) per text character here
    # (480 at m = 512 on 0^n) unless auto hands periodic needles to FJS
    n = 8192
    rng = random.Random(67)
    texts = (bytes(n), b"ab" * (n // 2), b"aaab" * (n // 4), _fibonacci_word(n),
             rng.randbytes(n // 2) + bytes(n // 2), rand_bytes(np.random.default_rng(67), 2, n))
    for t in texts:
        sigma = len(set(t))
        for m in (4, 8, 16, 64, 512):
            algo = select_applicable(sigma, m)
            for p in _atlas_needles(t, m):
                run = algo.compile(p)
                expected = find_all(p, t)
                assert run(t) == expected, (algo.id, m, p[:16])
                it = InstrumentedText(t)
                assert run(it) == expected, (algo.id, m, p[:16])
                assert it.reads <= 12 * n, (algo.id, m, p[:16], it.reads / n)


def test_guard_leaves_the_registry_rows_unguarded():
    assert all(get_algorithm(a.id) is a for a in REGISTRY)
    t, p = bytes(1024), bytes(64)
    auto = select_applicable(1, 64)
    assert auto.id == "HASH8"
    for algo, reads in ((get_algorithm("HASH8"), 69192), (get_algorithm("FJS"), 1024), (auto, 1024)):
        it = InstrumentedText(t)
        assert algo.compile(p)(it) == list(range(1024 - 64 + 1))
        assert it.reads == reads, algo.id
    # a needle that is not periodic keeps the pick's own searcher and reads
    t = generate_rand_text(4, 4096, seed=71).data
    p = t[1000:1064]
    assert not periodic_needle(p)
    counts = []
    for algo in (select_applicable(4, 64), get_algorithm("HASH8")):
        it = InstrumentedText(t)
        counts.append((algo.id, algo.compile(p)(it), it.reads))
    assert counts[0] == counts[1]


def test_applicable_algorithms():
    ids_m4 = {a.id for a in applicable_algorithms(4)}
    assert {"HASH5", "HASH8", "SSEF", "SBNDMq8", "SBNDMq6"}.isdisjoint(ids_m4)
    assert {"HOR", "SO", "SA", "BNDM", "HASH3", "SBNDMq4"} <= ids_m4
    ids_m1 = {a.id for a in applicable_algorithms(1)}
    assert {"HOR", "SO", "SA", "BNDM"} <= ids_m1
    assert "EBOM" not in ids_m1
    ids_big = {a.id for a in applicable_algorithms(2048)}
    assert all(a.m_max is None for a in applicable_algorithms(2048))
    assert {"SO", "SA", "LBNDM", "SSEF", "HOR"} <= ids_big
    with pytest.raises(ValueError):
        applicable_algorithms(0)


def _assert_every_descriptor_exact(seed, m_top):
    # unbounded rows are drawn up to m = m_top; reads mode must return the
    # occurrences of the raw bytes
    for algo in REGISTRY:
        m_hi = algo.m_max if algo.m_max is not None else m_top
        for p, t in fuzz_cases(seed, 50, algo.m_min, m_hi, n_max=1024):
            expected = brute_force_search(p, t)
            assert algo.search(p, t) == expected, (algo.id, len(p), len(t))
            assert algo.search(p, InstrumentedText(t)) == expected, (algo.id, len(p), len(t))


def test_every_descriptor_exact_raw_and_instrumented():
    # m up to 4W covers LBNDM's superimposition factors k = 1..4
    _assert_every_descriptor_exact(43 + W, 4 * W)


def test_every_descriptor_takes_any_bytes_like_input():
    # searchers see only bytes or InstrumentedText, whatever the caller passed
    for algo in REGISTRY:
        m_hi = algo.m_max if algo.m_max is not None else algo.m_min + W
        for p, t in fuzz_cases(71, 3, algo.m_min, m_hi, n_max=256):
            expected = brute_force_search(p, t)
            for kind in (bytes, bytearray, memoryview, Text):
                assert algo.search(p, kind(t)) == expected, (algo.id, kind)
                assert algo.search(p, InstrumentedText(kind(t))) == expected, (algo.id, kind)
            for kind in (bytearray, memoryview, Pattern):
                assert algo.search(kind(p), t) == expected, (algo.id, kind)


@pytest.mark.parametrize("bad", [b"abc"[0], "ab", [97, 98]], ids=["int", "str", "list"])
def test_non_bytes_inputs_are_refused(bad):
    # b"abc"[0] is the int 97, and bytes(97) would be 97 NULs
    text = b"ab" * 40
    for algo in REGISTRY:
        with pytest.raises(TypeError):
            algo.search(bad, text)
        with pytest.raises(TypeError):
            algo.search(b"a" * algo.m_min, bad)
    for call in (lambda: brute_force_search(bad, text), lambda: brute_force_search(b"a", bad),
                 lambda: Pattern(bad), lambda: Text(bad), lambda: InstrumentedText(bad)):
        with pytest.raises(TypeError):
            call()


@pytest.mark.parametrize("w", [32, 128])
def test_every_descriptor_exact_at_other_word_widths(w):
    # the draws once made at word widths w != W, now run at the fixed W:
    # the same seed and unbounded rows up to m = 4w, so w = 128 takes LBNDM
    # on to k = 5..8 and w = 32 draws short patterns more densely
    _assert_every_descriptor_exact(43 + w, 4 * w)


@pytest.mark.parametrize("w", [32, 64, 128])
def test_every_descriptor_gates_its_bounds_and_returns_nothing_on_short_texts(w):
    # the registry row is the one place bounds are checked: just outside
    # them both entry points raise, at them the factory compiles; a pattern
    # longer than the text (n = 0 .. m - 1) has no occurrence, and only the
    # one-pass SO and SA read that text at all. The word width is fixed at
    # W; w sets the seed and draws unbounded rows up to m = 4w
    for algo in REGISTRY:
        outside = [algo.m_min - 1] if algo.m_min > 1 else []
        if algo.m_max is not None:
            outside.append(algo.m_max + 1)
        for m in outside:
            for entry in (algo.compile, lambda p: algo.search(p, b"x" * 300)):
                with pytest.raises(ApplicabilityError) as exc:
                    entry(b"x" * m)
                assert (exc.value.algorithm, exc.value.m) == (algo.id, m)
        m_hi = algo.m_max if algo.m_max is not None else 4 * w
        for p, _ in fuzz_cases(44 + w, 6, algo.m_min, m_hi, sigmas=(1, 2, 64)):
            m = len(p)
            for n in {0, m // 2, m - 1}:
                it = InstrumentedText(p[:n])
                assert algo.search(p, it) == [], (algo.id, m, n)
                assert it.reads == (n if algo.id in ("SO", "SA") else 0), (algo.id, m, n)
        algo.compile(b"x" * algo.m_min)
        algo.compile(b"x" * m_hi)


def test_text_end_windows():
    # the last windows of a scan, where a lookahead character or the window
    # itself meets the text's end: n = m .. m + 3, a pattern planted at 0,
    # at n - m or at both, and 0^m against 0^n
    rng = np.random.default_rng(59)
    for algo in REGISTRY:
        for m in (1, 2, 4, 8, 31, 32, 33, 63, 64, 65):
            if not algo.applicable(m):
                continue
            for n in range(m, m + 4):
                p = rand_bytes(rng, 4, m)
                cases = [(bytes(m), bytes(n))]
                for starts in ((0,), (n - m,), (0, n - m)):
                    t = bytearray(rand_bytes(rng, 4, n))
                    for i in starts:
                        t[i : i + m] = p
                    cases.append((p, bytes(t)))
                for needle, t in cases:
                    expected = naive_scan(needle, t)
                    assert algo.search(needle, t) == expected, (algo.id, m, n, needle, t)
                    assert algo.search(needle, InstrumentedText(t)) == expected, (algo.id, m, n, needle, t)


#: reads per row over the case set of _reads_per_descriptor, which
#: regenerates it when a searcher is meant to change its reads
READS_PER_DESCRIPTOR = {
    "HOR": 1102612, "QS": 1104235, "BR": 1115456, "TVSBS": 1120542,
    "FJS": 28001, "HASH3": 1205318, "HASH5": 1140596, "HASH8": 960660,
    "SSEF": 869849, "BOM": 1836806, "EBOM": 1838739, "SO": 30998,
    "SA": 30998, "BNDM": 157932, "SBNDM": 157973, "LBNDM": 1259504,
    "SBNDM-BMH": 157976, "BMH-SBNDM": 219225, "FSBNDM": 78207, "SBNDMq2": 172703,
    "SBNDMq4": 166785, "SBNDMq6": 154308, "SBNDMq8": 185458,
}


def _pinned_cases(algo) -> list[tuple[bytes, bytes]]:
    # random cases, then 1 KiB 0^n and (ab)^k texts with an exact and a
    # near-miss (middle character changed) pattern at each applicable m,
    # where verification dominates
    m_hi = algo.m_max if algo.m_max is not None else 4 * W
    cases = list(fuzz_cases(47, 25, algo.m_min, m_hi, n_max=1024))
    for t in (bytes(1024), b"ab" * 512):
        for m in (4, 16, 64, 512):
            if algo.applicable(m):
                near = bytearray(t[:m])
                near[m // 2] ^= 1
                cases += [(t[:m], t), (bytes(near), t)]
    return cases


def _reads_per_descriptor() -> dict[str, int]:
    # total InstrumentedText reads per row over _pinned_cases
    totals = {}
    for algo in REGISTRY:
        reads = 0
        for p, t in _pinned_cases(algo):
            it = InstrumentedText(t)
            algo.search(p, it)
            reads += it.reads
        totals[algo.id] = reads
    return totals


def test_reads_per_descriptor_are_pinned():
    # the exact cost metric, scan and verification together, of every row
    assert _reads_per_descriptor() == READS_PER_DESCRIPTOR


#: first 16 hex digits of the sha256 of the text indices each row reads,
#: in order, over _pinned_cases (_read_order_digests regenerates them): a
#: refactor that reorders reads changes these even where the totals of
#: READS_PER_DESCRIPTOR stay
READ_ORDER_DIGESTS = {
    "HOR": "8610f371555a20a9", "QS": "fbe16c049638b278", "BR": "82e64710fb9bb079",
    "TVSBS": "e14f0f37d068344b", "FJS": "6db7506be02e88f3", "HASH3": "4b218260bca13336",
    "HASH5": "ff799e03f1ce13e6", "HASH8": "9ccddf2848de306d", "SSEF": "86868f31645bb118",
    "BOM": "dc508a1438abb390", "EBOM": "6ff0b5557d76c548", "SO": "6331f517d60782cc",
    "SA": "6331f517d60782cc", "BNDM": "b05deb8054538934", "SBNDM": "3eef26917d414981",
    "LBNDM": "56d762db5fd6b1cd", "SBNDM-BMH": "e4230d9e7fb48296", "BMH-SBNDM": "3db589f2dca2ec52",
    "FSBNDM": "90f54241371d3e45", "SBNDMq2": "ac58e62ede1b48ee", "SBNDMq4": "d845d75d3f642565",
    "SBNDMq6": "35be4a386d557ce2", "SBNDMq8": "808625cb7895895b",
}


def _read_order_digests() -> dict[str, str]:
    digests = {}
    for algo in REGISTRY:
        h = hashlib.sha256()
        for p, t in _pinned_cases(algo):
            rec = Recorder(t)
            algo.compile(p)(rec)
            h.update(repr(rec.indices).encode())
        digests[algo.id] = h.hexdigest()[:16]
    return digests


def test_read_order_per_descriptor_is_pinned():
    assert _read_order_digests() == READ_ORDER_DIGESTS


def test_precompiled_searcher_shareable_across_threads():
    from concurrent.futures import ThreadPoolExecutor

    text = generate_rand_text(4, 20_000, seed=99)
    (pattern,) = sample_patterns(text, 12, 1, seed=100)
    expected = brute_force_search(pattern, text)
    for algo_id in ("HOR", "EBOM", "SBNDM", "HASH5"):
        run = get_algorithm(algo_id).compile(pattern.data)
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(run, [text.data] * 8))
        assert all(r == expected for r in results)


def test_selection_map_csv_export():
    csv_text = DEFAULT_SELECTION_MAP.to_csv()
    lines = csv_text.strip().splitlines()
    assert lines[0] == "sigma_class,m_class,algorithm,provenance"
    assert len(lines) == 17
    assert "very_small,very_short,SA,paper-stated" in lines
    assert "very_large,very_long,LBNDM,paper-stated" in lines
    assert "very_small,short,HASH5,derived-fill" in lines
