import numpy as np
import pytest

from matchbench.bitparallel import (
    backward_masks,
    compile_sa,
    compile_so,
    compile_sbndmq,
    forward_masks,
)
from matchbench.core import ApplicabilityError, InstrumentedText

from conftest import Recorder, assert_matches_oracle, fuzz_cases, rand_bytes, search_id, searcher


def test_so_trivial():
    assert searcher("SO")(b"ab", b"abab") == [0, 2]
    assert searcher("SA")(b"ab", b"abab") == [0, 2]


@pytest.mark.parametrize("algo_id", ["SO", "SA"], ids=search_id)
def test_so_sa_multiword(algo_id):
    # m=100 > w exercises the multiword state path
    assert_matches_oracle(searcher(algo_id), fuzz_cases(31, 200, 100, 100, n_max=1024))


@pytest.mark.parametrize("algo_id", ["SO", "SA"], ids=search_id)
def test_so_sa_one_pass_reads(algo_id):
    search_fn = searcher(algo_id)
    rng = np.random.default_rng(32)
    for _ in range(50):
        sigma = int(rng.choice([2, 64]))
        m = int(rng.integers(1, 65))
        n = int(rng.integers(0, 400))
        it = InstrumentedText(rand_bytes(rng, sigma, n))
        search_fn(rand_bytes(rng, sigma, m), it)
        assert it.reads == n


@pytest.mark.parametrize("m", [1, 64, 65, 128, 129])
def test_so_state_stays_within_m_bits(m):
    # white-box: the packed state never exceeds the m-bit window
    rng = np.random.default_rng(33)
    p = rand_bytes(rng, 4, m)
    t = rand_bytes(rng, 4, 300)
    mask = (1 << m) - 1
    B = [(~v) & mask for v in forward_masks(p)]
    state = mask
    for c in t:
        state = ((state << 1) | B[c]) & mask
        assert state.bit_length() <= m


def test_mask_column_popcount():
    # each pattern position is owned by exactly one character's mask
    rng = np.random.default_rng(34)
    for _ in range(100):
        m = int(rng.integers(1, 96))
        p = rand_bytes(rng, int(rng.choice([1, 2, 256])), m)
        for table in (forward_masks(p), backward_masks(p)):
            for j in range(m):
                assert sum((v >> j) & 1 for v in table) == 1
            assert all(v >> m == 0 for v in table)


def test_bndm_trivial_and_bounds():
    assert searcher("BNDM")(b"aba", b"ababa") == [0, 2]
    with pytest.raises(ApplicabilityError):
        searcher("BNDM")(b"x" * 65, b"whatever")


def test_bndm_fuzz():
    assert_matches_oracle(searcher("BNDM"), fuzz_cases(35, 1000, 1, 64, n_max=1024))


def test_sbndm_trivial_and_bounds():
    assert searcher("SBNDM")(b"aba", b"ababa") == [0, 2]
    with pytest.raises(ApplicabilityError):
        searcher("SBNDM")(b"x" * 65, b"whatever")


def test_sbndm_fuzz():
    assert_matches_oracle(searcher("SBNDM"), fuzz_cases(36, 1000, 1, 64, n_max=1024))


def test_sbndmq_trivial_and_bounds():
    assert searcher("SBNDMq2")(b"ab", b"abab") == [0, 2]
    with pytest.raises(ApplicabilityError):
        searcher("SBNDMq8")(b"abcd", b"whatever")  # m=4 < q=8
    with pytest.raises(ApplicabilityError):
        searcher("SBNDMq2")(b"x" * 65, b"whatever")
    with pytest.raises(ValueError):
        compile_sbndmq(3, b"abc")


@pytest.mark.parametrize("q", [2, 4, 6, 8])
def test_sbndmq_fuzz(q):
    assert_matches_oracle(searcher(f"SBNDMq{q}"), fuzz_cases(37 + q, 1000, q, 64, n_max=1024))


@pytest.mark.parametrize("q", [2, 4, 6, 8])
def test_sbndmq_entry_reads_exactly_q(q):
    # with no pattern character in the text every window fails at entry:
    # it reads its last q positions, descending, then shifts m - q + 1
    for m in (q, 16, 64):
        p = bytes(range(1, m + 1))
        rec = Recorder(bytes(500))
        assert compile_sbndmq(q, p)(rec) == []
        expected = []
        for pos in range(0, 500 - m + 1, m - q + 1):
            expected += range(pos + m - 1, pos + m - 1 - q, -1)
        assert rec.indices == expected, (q, m)


def test_fsbndm_trivial_and_bounds():
    assert searcher("FSBNDM")(b"ab", b"abba") == [0]
    assert searcher("FSBNDM")(b"x" * 63, b"x" * 100) == list(range(38))
    with pytest.raises(ApplicabilityError):
        searcher("FSBNDM")(b"x" * 64, b"whatever")  # m = w needs the lookahead bit


def test_fsbndm_fuzz():
    assert_matches_oracle(searcher("FSBNDM"), fuzz_cases(38, 1000, 1, 63, n_max=1024))


def test_lbndm_matches_bndm_for_short_patterns():
    lbndm, bndm = searcher("LBNDM"), searcher("BNDM")
    for p, t in fuzz_cases(39, 100, 1, 64, n_max=512):
        assert lbndm(p, t) == bndm(p, t)


def test_lbndm_long_fuzz():
    assert_matches_oracle(searcher("LBNDM"), fuzz_cases(40, 500, 65, 1024, n_max=4096))
    # LBNDM reports a start only after verifying it inside a filter window,
    # so exact output also shows that the filter missed no occurrence
    assert_matches_oracle(searcher("LBNDM"), fuzz_cases(41, 200, 65, 400, n_max=2048))


def test_lbndm_degenerate_periodic():
    assert searcher("LBNDM")(b"a" * 200, b"a" * 1000) == list(range(801))


@pytest.mark.parametrize("algo_id", ["SBNDM-BMH", "BMH-SBNDM"], ids=search_id)
def test_hybrids(algo_id):
    search_fn = searcher(algo_id)
    assert search_fn(b"ab", b"abab") == [0, 2]
    with pytest.raises(ApplicabilityError):
        search_fn(b"x" * 65, b"whatever")
    assert_matches_oracle(search_fn, fuzz_cases(42, 1000, 1, 64, n_max=1024))
