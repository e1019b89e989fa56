import subprocess
import sys

import numpy as np
import pytest

from matchbench.core import (
    InstrumentedText,
    Pattern,
    Text,
    brute_force_search,
)

from conftest import child_env, count_occurrences, naive_scan, rand_bytes


def test_text_invariants():
    t = Text(b"abc", "t1")
    assert len(t) == 3
    assert t.alphabet_size() == 3
    assert len(Text(b"", "empty")) == 0
    with pytest.raises(ValueError):
        Text(b"abc", "")


def _random_text(rng, alphabet: bytes, n: int) -> bytes:
    table = bytes(alphabet[b % len(alphabet)] for b in range(256))
    return rng.integers(0, 256, size=n, dtype=np.uint8).tobytes().translate(table)


def test_alphabet_size_is_exact():
    rng = np.random.default_rng(2010)
    texts = []
    for n in (0, 1, 4095, 4096, 4097, 10**4):
        for sigma in range(1, 257):
            alphabet = rng.permutation(256)[:sigma].astype(np.uint8).tobytes()
            texts.append(_random_text(rng, alphabet, n))
    every = bytes(range(256))
    texts += [every, every[::-1] * 40, rng.permutation(256).astype(np.uint8).tobytes() * 17]
    # symbols that first appear after the 4 KiB head
    head = _random_text(rng, b"abcd", 4096)
    texts += [head + b"e", head + every, head + _random_text(rng, every[100:], 5000),
              head + b"a" * 9000 + b"\xff"]
    # one new symbol per 4 KiB block
    texts.append(b"".join(bytes([b]) * 4096 for b in range(256)))
    texts.append(b"".join(_random_text(rng, every[: b + 1], 4096) for b in range(0, 256, 7)))
    # a 4 KiB head of one symbol followed by another
    texts += [b"a" * 4096 + b"b" * 10**4, b"\x00" * 4096 + b"\x01", b"\x00" * 4095 + b"\x01" * 3]
    for data in texts:
        assert Text(data).alphabet_size() == len(set(data)), (len(data), len(set(data)))


def test_pattern_rejects_empty():
    assert len(Pattern(b"a")) == 1
    with pytest.raises(ValueError):
        Pattern(b"")


def test_brute_force_trivial():
    assert brute_force_search(b"aba", b"ababa") == [0, 2]
    assert brute_force_search(b"b", b"aaaa") == []
    assert brute_force_search(b"abc", b"ab") == []  # m > n is legal, empty
    assert brute_force_search(Pattern(b"aba"), Text(b"ababa")) == [0, 2]


def test_brute_force_extracted_window_rand2():
    rng = np.random.default_rng(1)
    t = rand_bytes(rng, 2, 1000)
    p = t[137:145]
    result = brute_force_search(p, t)
    assert 137 in result
    assert result == naive_scan(p, t)


def test_brute_force_against_independent_scan():
    # the independent second oracle, over >= 1000 random cases
    rng = np.random.default_rng(2)
    for _ in range(1000):
        sigma = int(rng.choice([1, 2, 4, 16, 256]))
        m = int(rng.integers(1, 12))
        n = int(rng.integers(0, 200))
        t = rand_bytes(rng, sigma, n)
        p = rand_bytes(rng, sigma, m)
        assert brute_force_search(p, t) == naive_scan(p, t)


def test_brute_force_read_bounds():
    # no partial matches longer than 1: reads stay within [n-m+1, n*m]
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(10, 300))
        m = int(rng.integers(1, 9))
        t = rand_bytes(rng, 256, n)
        p = rand_bytes(rng, 256, m)
        it = InstrumentedText(Text(t))
        brute_force_search(p, it)
        assert n - m + 1 <= it.reads <= n * m


def test_occurrence_count_statistic():
    # mean occurrence count of a random length-m pattern over Rand2 stays
    # within 3 standard errors of (n - m + 1) * sigma^-m
    rng = np.random.default_rng(4)
    n, m, sigma, trials = 256, 6, 2, 10_000
    counts = np.empty(trials)
    for i in range(trials):
        t = rand_bytes(rng, sigma, n)
        p = rand_bytes(rng, sigma, m)
        counts[i] = count_occurrences(p, t)
    expected = (n - m + 1) * sigma**-m
    se = counts.std() / np.sqrt(trials)
    assert abs(counts.mean() - expected) <= 3 * se


def test_instrumented_text():
    t = Text(b"ababa", "t")
    it = InstrumentedText(t)
    assert brute_force_search(b"aba", it) == [0, 2]
    first = it.reads
    assert first > 0
    brute_force_search(b"aba", it)
    assert it.reads == 2 * first  # monotone, same cost per run
    with pytest.raises(TypeError):
        it[0:2]


def test_instrumented_startswith_contract():
    # same answer as bytes.startswith; k + 1 reads on a first mismatch at k,
    # m on a match, none for the empty needle (TVSBS's inner part at m <= 2)
    rng = np.random.default_rng(5)
    matches = 0
    for _ in range(2000):
        sigma = int(rng.choice([1, 2, 4, 256]))
        n = int(rng.integers(0, 64))
        m = int(rng.integers(0, n + 1))
        t = rand_bytes(rng, sigma, n)
        i = int(rng.integers(0, n - m + 1))
        p = t[i : i + m] if rng.random() < 0.5 else rand_bytes(rng, sigma, m)
        mismatch = next((k for k in range(m) if t[i + k] != p[k]), None)
        it = InstrumentedText(t)
        assert it.startswith(p, i) == t.startswith(p, i) == (mismatch is None)
        assert it.reads == (m if mismatch is None else mismatch + 1)
        matches += mismatch is None
    assert 500 < matches < 1500
    it = InstrumentedText(b"ab")
    assert it.startswith(b"", 0) and it.startswith(b"", 2)
    assert it.reads == 0


def test_package_namespace_is_lazy():
    # `import matchbench` loads no submodule; each public name loads its home
    # module on first use and is that module's own object
    code = """\
import sys
import matchbench
assert not [m for m in sys.modules if m.startswith("matchbench.")]
assert set(matchbench.__all__) <= set(dir(matchbench))
for name in matchbench.__all__:
    value = getattr(matchbench, name)
    assert value is getattr(sys.modules["matchbench." + matchbench._HOME[name]], name), name
star = {}
exec("from matchbench import *", star)
assert set(matchbench.__all__) <= set(star)
try:
    matchbench.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("matchbench.no_such_name resolved")
assert matchbench.bench.load_corpus is matchbench.core.load_corpus
"""
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=child_env(), timeout=60)
    assert done.returncode == 0, done.stderr
