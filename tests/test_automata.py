import numpy as np
import pytest

from matchbench.automata import (
    FactorOracle,
    build_factor_oracle,
    compile_bom,
    compile_ebom,
)
from matchbench.core import ApplicabilityError, InstrumentedText, brute_force_search

from conftest import assert_matches_oracle, fuzz_cases, rand_bytes, searcher


def test_oracle_single_char():
    oracle = build_factor_oracle(b"a")
    assert oracle.state_count == 2
    assert oracle.transitions[0] == {ord("a"): 1}


def test_oracle_accepts_full_reversed_pattern():
    oracle = build_factor_oracle(b"ab")
    # reading "b" then "a" from the initial state reaches the final state
    s = oracle.transitions[0][ord("b")]
    assert oracle.transitions[s][ord("a")] == 2
    assert oracle.accepts(b"ba")


def test_oracle_accepts_every_factor():
    rng = np.random.default_rng(21)
    for _ in range(200):
        m = int(rng.integers(1, 17))
        p = rand_bytes(rng, int(rng.choice([1, 2, 4, 26])), m)
        oracle = build_factor_oracle(p)
        assert oracle.state_count == m + 1
        rev = p[::-1]
        for i in range(m):
            for j in range(i + 1, m + 1):
                assert oracle.accepts(rev[i:j]), f"factor {rev[i:j]!r} of {rev!r} rejected"


def test_oracle_external_transition_bound():
    rng = np.random.default_rng(22)
    for _ in range(200):
        m = int(rng.integers(1, 64))
        p = rand_bytes(rng, int(rng.choice([1, 2, 256])), m)
        oracle = FactorOracle(p)
        ext = oracle.external_transition_count()
        # m internal transitions plus externals stay within the 2m-1 total
        assert 0 <= ext <= m - 1 or m == 1 and ext == 0


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
