import hashlib

import numpy as np
import pytest

from matchbench.automata import _factor_oracle, compile_bom, compile_ebom
from matchbench.core import ApplicabilityError, InstrumentedText

from conftest import assert_matches_oracle, fuzz_cases, rand_bytes, searcher


def accepts(trans: list[dict[int, int]], s: bytes) -> bool:
    state = 0
    for c in s:
        state = trans[state].get(c)
        if state is None:
            return False
    return True


def test_oracle_single_char():
    trans = _factor_oracle(b"a")
    assert len(trans) == 2
    assert trans[0] == {ord("a"): 1}


def test_oracle_accepts_full_reversed_pattern():
    trans = _factor_oracle(b"ab"[::-1])
    # reading "b" then "a" from the initial state reaches the final state
    s = trans[0][ord("b")]
    assert trans[s][ord("a")] == 2
    assert accepts(trans, b"ba")


def test_oracle_accepts_every_factor():
    rng = np.random.default_rng(21)
    for _ in range(200):
        m = int(rng.integers(1, 17))
        p = rand_bytes(rng, int(rng.choice([1, 2, 4, 26])), m)
        rev = p[::-1]
        trans = _factor_oracle(rev)
        assert len(trans) == m + 1
        for i in range(m):
            for j in range(i + 1, m + 1):
                assert accepts(trans, rev[i:j]), f"factor {rev[i:j]!r} of {rev!r} rejected"


def test_oracle_external_transition_bound():
    rng = np.random.default_rng(22)
    for _ in range(200):
        m = int(rng.integers(1, 64))
        p = rand_bytes(rng, int(rng.choice([1, 2, 256])), m)
        ext = sum(len(d) for d in _factor_oracle(p)) - m
        # m internal transitions plus externals stay within the 2m-1 total
        assert 0 <= ext <= m - 1 or m == 1 and ext == 0


def test_factor_oracle_transitions_are_pinned():
    # the whole table, including transitions that no scan reaches
    rng = np.random.default_rng(27)
    words = []
    for _ in range(400):
        sigma = int(rng.choice([1, 2, 4, 64, 256]))
        words.append(rand_bytes(rng, sigma, int(rng.integers(1, 300))))
    words += [b"a" * 100, b"ab" * 50, b"abaababaabaab" * 5]
    h = hashlib.sha256()
    for w in words:
        h.update(repr([sorted(d.items()) for d in _factor_oracle(w)]).encode())
    assert h.hexdigest()[:16] == "c5325ec7bcaae6d6"


def test_bom_trivial():
    assert searcher("BOM")(b"aba", b"ababa") == [0, 2]
    assert searcher("BOM")(b"abab", b"ab") == []  # pattern longer than text


def test_ebom_trivial():
    assert searcher("EBOM")(b"ab", b"abab") == [0, 2]
    with pytest.raises(ApplicabilityError):
        searcher("EBOM")(b"a", b"aaa")


def test_bom_fuzz():
    assert_matches_oracle(searcher("BOM"), fuzz_cases(23, 500, 1, 1024, n_max=2048))


def test_ebom_fuzz():
    assert_matches_oracle(searcher("EBOM"), fuzz_cases(24, 500, 2, 1024, n_max=2048))


def test_bom_ebom_agree():
    bom, ebom = searcher("BOM"), searcher("EBOM")
    for p, t in fuzz_cases(25, 300, 2, 48, n_max=1024):
        assert bom(p, t) == ebom(p, t)


def test_ebom_reads_at_most_one_extra_per_window():
    # the two-character entry reads at most one more character per window
    # than BOM, and both take identical shifts
    for p, t in fuzz_cases(26, 200, 2, 32, n_max=512):
        n, m = len(t), len(p)
        bom_reads = InstrumentedText(t)
        ebom_reads = InstrumentedText(t)
        assert compile_bom(p)(bom_reads) == compile_ebom(p)(ebom_reads)
        assert ebom_reads.reads <= bom_reads.reads + (n - m + 1)
