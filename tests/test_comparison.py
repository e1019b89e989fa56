import numpy as np
import pytest

from matchbench.bench import generate_rand_text
from matchbench.comparison import (
    HASH_GRAM_LENGTHS,
    _GRAMS,
    _bit_table,
    _br_table,
    _fingerprint_offsets,
    _horspool_table,
    _pick_filter_bit,
    _sunday_table,
    compile_hashq,
    compile_ssef,
)
from matchbench.core import ApplicabilityError, InstrumentedText, brute_force_search

from conftest import Recorder, assert_matches_oracle, fuzz_cases, rand_bytes, search_id, searcher


def test_hor_trivial():
    assert searcher("HOR")(b"aba", b"ababa") == [0, 2]
    assert searcher("HOR")(b"zz", b"abab") == []


def test_qs_trivial():
    assert searcher("QS")(b"aba", b"ababa") == [0, 2]
    assert searcher("QS")(b"zz", b"abab") == []


def test_br_trivial():
    assert searcher("BR")(b"ab", b"abab") == [0, 2]
    assert searcher("BR")(b"abcab", b"abc") == []  # m > n


def test_tvsbs_trivial():
    assert searcher("TVSBS")(b"abba", b"abba") == [0]
    assert searcher("TVSBS")(b"aa", b"bbbb") == []


def test_fjs_trivial():
    assert searcher("FJS")(b"aaa", b"aaaaa") == [0, 1, 2]
    assert searcher("FJS")(b"ab", b"ba") == []


@pytest.mark.parametrize("algo_id", ["HOR", "QS", "BR", "TVSBS", "FJS"], ids=search_id)
def test_fuzz_against_oracle(algo_id):
    ran = assert_matches_oracle(searcher(algo_id), fuzz_cases(11, 500, 1, 64, n_max=2048))
    assert ran == 500


def test_fjs_periodic_patterns():
    rng = np.random.default_rng(12)
    for _ in range(100):
        k = int(rng.integers(1, 12))
        p = b"ab" * k
        n = int(rng.integers(len(p), 600))
        t = rand_bytes(rng, 2, n).replace(b"\x00", b"a").replace(b"\x01", b"b")
        assert searcher("FJS")(p, t) == brute_force_search(p, t)


def test_hashq_trivial():
    assert searcher("HASH3")(b"abc", b"aabcc") == [1]


def test_hashq_applicability():
    with pytest.raises(ApplicabilityError):
        searcher("HASH5")(b"abcd", b"whatever")  # m=4 < q=5
    with pytest.raises(ApplicabilityError):
        searcher("HASH8")(b"abcdefg", b"whatever")
    with pytest.raises(ValueError):
        compile_hashq(4, b"abcd")  # q not in {3,5,8}


@pytest.mark.parametrize("q", [3, 5, 8])
def test_hashq_fuzz(q):
    assert_matches_oracle(searcher(f"HASH{q}"), fuzz_cases(100 + q, 500, q, 256, n_max=1024))


def test_hashq_reads_only_sampled_grams():
    # with the pattern's final q-gram absent from the text there are no
    # candidate windows, so all reads group into q consecutive positions
    q, m = 3, 12
    p = bytes([0] * (m - q)) + bytes([7, 8, 9])
    t = bytes([0, 1] * 500)

    rec = Recorder(t)
    assert compile_hashq(q, p)(rec) == []
    assert rec.indices, "filter must read something"
    assert len(rec.indices) % q == 0
    for k in range(0, len(rec.indices), q):
        gram = rec.indices[k : k + q]
        assert gram == list(range(gram[0], gram[0] + q))


def test_hash_grams_match_definition():
    # each per-q expression is the q-gram hash sum(c << (q - 1 - k)), read
    # left to right, and stays below the table's 255 << q entries
    assert HASH_GRAM_LENGTHS == (3, 5, 8)
    rng = np.random.default_rng(29)
    for q in HASH_GRAM_LENGTHS:
        gram = _GRAMS[q]
        grams = [bytes([255] * q)]
        for _ in range(300):
            g = bytearray(rand_bytes(rng, 256, q))
            g[int(rng.integers(0, q))] = 255
            grams.append(bytes(g))
        for g in grams:
            h = gram(g, 0)
            assert h == sum(c << (q - 1 - k) for k, c in enumerate(g)), (q, g)
            assert h < 255 << q
            b = int(rng.integers(0, 8))
            rec = Recorder(bytes(b) + g)
            assert gram(rec, b) == h
            assert rec.indices == list(range(b, b + q))


def test_ssef_degenerate_periodic():
    # every sampled block hits the fingerprint table, with every in-pattern
    # offset (0^m) or every second one ((ab)^(m/2)): all alignments are
    # verified and must come out ascending
    assert searcher("SSEF")(b"\x00" * 32, b"\x00" * 1024) == list(range(993))
    for m in (32, 64, 512, 1024):
        for n in (m, m + 1, 3 * m + 7):
            assert searcher("SSEF")(b"\x00" * m, b"\x00" * n) == list(range(n - m + 1)), (m, n)
            assert searcher("SSEF")(b"ab" * (m // 2), (b"ab" * n)[:n]) == list(range(0, n - m + 1, 2)), (m, n)


def _loop_filter_bit(p: bytes) -> int:
    # reference: the bit whose ones and zeros are most balanced over p,
    # counted one character at a time; ties prefer the most significant bit
    m = len(p)
    best_bit, best_balance = 7, -1
    for bit in range(7, -1, -1):
        ones = 0
        for c in p:
            ones += (c >> bit) & 1
        if min(ones, m - ones) > best_balance:
            best_balance, best_bit = min(ones, m - ones), bit
    return best_bit


def _sliding_fingerprints(p: bytes, bit: int, width: int) -> dict[int, list[int]]:
    # reference: offsets j grouped by the integer whose bit k is the filter
    # bit of p[j + k], built by sliding one character at a time
    bits = [(c >> bit) & 1 for c in p]
    fps: dict[int, list[int]] = {}
    f = 0
    for k in range(width - 1):
        f |= bits[k] << k
    for j in range(len(p) - width + 1):
        f |= bits[j + width - 1] << (width - 1)
        fps.setdefault(f, []).append(j)
        f >>= 1
    return fps


def test_bit_table_maps_each_byte_to_its_bit():
    for bit in range(8):
        assert _bit_table(bit) == bytes((c >> bit) & 1 for c in range(256)), bit


def _ssef_patterns(seed: int):
    # random patterns over sigma in {1, 2, 4, 64, 256}, all-equal patterns,
    # and patterns over two byte values in equal numbers, whose differing
    # bits tie exactly
    rng = np.random.default_rng(seed)
    for _ in range(2000):
        sigma = int(rng.choice([1, 2, 4, 64, 256]))
        yield rand_bytes(rng, sigma, int(rng.integers(32, 1101)))
    for c in (0, 1, 127, 128, 255):
        yield bytes([c]) * int(rng.integers(32, 1101))
    for _ in range(300):
        a, b = (int(x) for x in rng.integers(0, 256, size=2))
        m = 2 * int(rng.integers(16, 551))
        yield bytes(rng.permutation([a] * (m // 2) + [b] * (m // 2)).astype(np.uint8))


def test_pick_filter_bit_equals_loop_count():
    for p in _ssef_patterns(23):
        assert _pick_filter_bit(p) == _loop_filter_bit(p), p


_BINARY_DIGITS = b"01" + bytes(254)  # translate table: 0/1 bytes to digits


def test_fingerprint_offsets_group_as_sliding_table():
    # the 0/1-byte keys group the offsets, in the same order, as the integer
    # fingerprints do; key byte k is integer bit k
    for p in _ssef_patterns(24):
        bit = _pick_filter_bit(p)
        fps = _fingerprint_offsets(p.translate(_bit_table(bit)))
        as_ints = {int(key[::-1].translate(_BINARY_DIGITS), 2): offs for key, offs in fps.items()}
        assert all(len(key) == 16 for key in fps)
        assert as_ints == _sliding_fingerprints(p, bit, 16), p


@pytest.mark.parametrize("m", [32, 33, 64, 100, 512, 1024])
def test_ssef_reads_16_characters_per_sampled_block(m):
    # no block of the all-zero text matches a fingerprint of the pattern,
    # whose filter bit alternates: the scan reads exactly the 16 characters
    # of each sampled block, ascending, with blocks m - 15 apart
    p = b"\x00\xff" * (m // 2) + b"\x00" * (m % 2)
    for n in (m, m + 1, 3 * m + 7, 4096):
        rec = Recorder(bytes(n))
        assert compile_ssef(p)(rec) == []
        assert rec.indices == [i for s in range(0, n - 15, m - 15) for i in range(s, s + 16)], (m, n)


@pytest.mark.parametrize("sigma", [4, 256])
def test_ssef_block_cost(sigma):
    # on random text with patterns drawn independently of it, verification
    # adds little to the 16 reads of each sampled block
    n = 1 << 16
    text = generate_rand_text(sigma, n, seed=sigma)
    rng = np.random.default_rng(sigma + 1)
    for m in (64, 128, 256, 1024):
        it = InstrumentedText(text.data)
        searcher("SSEF")(rand_bytes(rng, sigma, m), it)
        blocks = (n - 16) // (m - 15) + 1
        assert it.reads <= 1.1 * 16 * blocks, (m, it.reads, blocks)


def test_ssef_applicability():
    with pytest.raises(ApplicabilityError):
        searcher("SSEF")(b"x" * 16, b"whatever")
    with pytest.raises(ApplicabilityError):
        searcher("SSEF")(b"x" * 31, b"whatever")


def test_ssef_fuzz():
    assert_matches_oracle(
        searcher("SSEF"),
        fuzz_cases(13, 500, 32, 1024, sigmas=(2, 4, 64), n_max=4096),
    )


@pytest.mark.parametrize("m", [32, 63, 64, 65, 127, 128, 129, 1024])
def test_ssef_finds_occurrences_at_both_ends(m):
    # 16-character blocks m - 15 apart and m - 15 in-pattern offsets, with
    # the pattern planted where the first and last sampled blocks see it
    rng = np.random.default_rng(m)
    for n in (m, m + 1, 2 * m + 7, 4096):
        t = bytearray(rand_bytes(rng, 2, n))
        p = rand_bytes(rng, 2, m)
        t[:m] = p
        t[n - m :] = p
        t = bytes(t)
        assert searcher("SSEF")(p, t) == brute_force_search(p, t)


@pytest.mark.parametrize(
    "algo_id,min_m",
    [
        ("HOR", 1),
        ("QS", 1),
        ("BR", 1),
        ("TVSBS", 1),
        ("FJS", 1),
        pytest.param("HASH3", 3, id="<lambda>-3"),  # keeps its pre-registry test id
        ("SSEF", 32),
    ],
    ids=search_id,
)
def test_planted_occurrence_never_skipped(algo_id, min_m):
    # shift safety: a pattern planted at a random position is always found
    search = searcher(algo_id)
    rng = np.random.default_rng(14)
    for _ in range(200):
        sigma = int(rng.choice([2, 4, 64]))
        m = int(rng.integers(min_m, max(min_m + 1, 48)))
        n = int(rng.integers(m, 800))
        t = rand_bytes(rng, sigma, n)
        i = int(rng.integers(0, n - m + 1))
        p = t[i : i + m]
        assert i in search(p, t)


def test_shift_table_bounds():
    rng = np.random.default_rng(15)
    for _ in range(100):
        m = int(rng.integers(1, 40))
        p = rand_bytes(rng, int(rng.choice([1, 2, 256])), m)
        assert all(1 <= s <= m for s in _horspool_table(p))
        assert all(1 <= s <= m + 1 for s in _sunday_table(p))
        assert all(1 <= s <= m + 2 for row in _br_table(p) for s in row)
        # the values: distance from the last occurrence of c to the window's
        # last position (Horspool, p[m - 1] excluded) or just past it (Sunday)
        hor_tbl, qs_tbl = _horspool_table(p), _sunday_table(p)
        for c in range(256):
            hor = [i for i in range(m - 1) if p[i] == c]
            qs = [i for i in range(m) if p[i] == c]
            assert hor_tbl[c] == (m - 1 - hor[-1] if hor else m), (p, c)
            assert qs_tbl[c] == (m - qs[-1] if qs else m + 1), (p, c)


def _flat_br_table(p: bytes) -> list[int]:
    # reference: the dense 65536-entry table indexed (a << 8) | b
    m = len(p)
    tbl = [m + 2] * 65536
    tbl[p[0] :: 256] = [m + 1] * 256
    for i in range(m - 1):
        idx = (p[i] << 8) | p[i + 1]
        s = m - i
        if s < tbl[idx]:
            tbl[idx] = s
    row = p[m - 1] << 8
    tbl[row : row + 256] = [1] * 256
    return tbl


def test_br_table_rows_equal_flat_table():
    # the row-shared table holds the dense table's values, with one row
    # object per distinct character of p plus the shared default row
    rng = np.random.default_rng(17)
    sigmas = (1, 2, 4, 64, 256)
    cases = [(sigma, m) for sigma in sigmas for m in (1, 2, 3) for _ in range(100)]
    cases += [(int(rng.choice(sigmas)), int(rng.integers(1, 1101))) for _ in range(2500)]
    for sigma, m in cases:
        p = rand_bytes(rng, sigma, m)
        tbl = _br_table(p)
        flat = _flat_br_table(p)
        assert len(tbl) == 256
        assert all(tbl[a] == flat[a << 8 : (a + 1) << 8] for a in range(256)), p
        assert len({id(row) for row in tbl}) <= len(set(p)) + 1


def test_hor_sublinear_reads_on_rand64(rand64_1mib):
    # qualitative sublinearity: well under half a read per text character
    text = rand64_1mib
    n = len(text)
    rng = np.random.default_rng(16)
    for m in (8, 32):
        i = int(rng.integers(0, n - m + 1))
        p = text.data[i : i + m]
        it = InstrumentedText(text)
        searcher("HOR")(p, it)
        assert it.reads < 0.5 * n
