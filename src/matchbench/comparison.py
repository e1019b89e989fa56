"""Comparison-based searchers.

Horspool and Quick-Search shift on one character, Berry-Ravindran and
TVSBS on the two characters following the window, FJS mixes Quick-Search
skips with KMP verification, HASHq shifts on hashed q-grams, and SSEF
filters long patterns through the bit fingerprints of 16-character text
blocks.

Each algorithm comes as a ``compile_*`` factory returning a searcher
closure over the preprocessed tables, so benchmarks can time the search
phase alone.  The factories assume the pattern-length bounds of their
registry rows (HASHq m >= q, SSEF m >= 32) and are reached through those
descriptors, which check them.

The scan loops keep interpreter work per window low.  A window is indexed
by its end: ``r`` is its last character (HOR, FJS's skip loop) or the
first character past it (BR, TVSBS), and the start ``r - m`` (+ 1) is
computed only when a window is verified.  BR and TVSBS peel the one or two
windows at the text's end, where the second lookahead character is
missing, out of the main loop, and HASHq hashes each q-gram through one
expression per q (``_GRAMS``).  SSEF reads each sampled 16-character
block one character at a time, in ascending order, into a list, and one
``translate`` turns it into the block's fingerprint.  From the eighth
occurrence d = m - fail[m] apart, FJS takes the rest of the run, whose
characters continue p's period, in blocks compared by ``_match_length``.
Reads and their order are those of the textbook loops.
"""

from __future__ import annotations


def _sunday_table(p: bytes) -> list[int]:
    # shift indexed by the text character just past the window
    m = len(p)
    tbl = [m + 1] * 256
    for i in range(m):
        tbl[p[i]] = m - i
    return tbl


def _horspool_table(p: bytes) -> list[int]:
    # shift indexed by the text character under the window's last position:
    # the Sunday shift of p without its last character
    return _sunday_table(p[:-1])


def _br_table(p: bytes) -> list[list[int]]:
    # 256x256 shift table addressed tbl[a][b] by the two characters after
    # the window; min over: pair occurring inside p, window-final char as
    # first of the pair, p[0] as second of the pair, or skipping past both.
    # Only p's characters get a row of their own; all others share one
    # default row. The build costs O(m + 256 * distinct characters of p)
    # instead of a 65536-entry fill, and the scan keeps to those few rows
    m = len(p)
    default = [m + 2] * 256
    default[p[0]] = m + 1
    tbl = [default] * 256
    for a in set(p[:-1]):
        tbl[a] = default.copy()
    for i in range(m - 1):
        # shifts shrink as i grows, so the last write for a pair is its min
        tbl[p[i]][p[i + 1]] = m - i
    tbl[p[m - 1]] = [1] * 256
    return tbl


def kmp_failure(p: bytes) -> list[int]:
    """fail[j] = length of the longest proper border of p[:j], for j in 0..m."""
    m = len(p)
    fail = [0] * (m + 1)
    k = 0
    for j in range(1, m):
        while k and p[j] != p[k]:
            k = fail[k]
        if p[j] == p[k]:
            k += 1
        fail[j + 1] = k
    return fail


def compile_hor(p: bytes):
    """Horspool: verify the window, advance by the last-character shift."""
    m = len(p)
    tbl = _horspool_table(p)
    last = p[m - 1]

    def run(hay) -> list[int]:
        n = len(hay)
        out: list[int] = []
        r = m1 = m - 1  # r: the window's last character
        while r < n:
            c = hay[r]
            if c == last and hay.startswith(p, r - m1):
                out.append(r - m1)
            r += tbl[c]
        return out

    return run


def compile_qs(p: bytes):
    """Quick-Search: verify the window, shift on the character past it."""
    m = len(p)
    qs = _sunday_table(p)

    def run(hay) -> list[int]:
        n = len(hay)
        out: list[int] = []
        pos = 0
        end = n - m
        while pos <= end:
            if hay.startswith(p, pos):
                out.append(pos)
            if pos == end:
                break
            pos += qs[hay[pos + m]]
        return out

    return run


def compile_br(p: bytes):
    """Berry-Ravindran: shift on the two characters after the window."""
    m = len(p)
    tbl = _br_table(p)
    qs = _sunday_table(p)

    def run(hay) -> list[int]:
        n = len(hay)
        out: list[int] = []
        r = m  # the first character past the window
        nl = n - 1
        while r < nl:
            if hay.startswith(p, r - m):
                out.append(r - m)
            r += tbl[hay[r]][hay[r + 1]]
        while r <= n:
            # the last windows: one lookahead character (Sunday shift), then none
            if hay.startswith(p, r - m):
                out.append(r - m)
            if r == n:
                break
            r += qs[hay[r]]
        return out

    return run


def compile_tvsbs(p: bytes):
    """TVSBS: first/last guard characters, then BR-style two-char shift."""
    m = len(p)
    tbl = _br_table(p)
    qs = _sunday_table(p)
    first = p[0]
    last = p[m - 1]
    inner = p[1 : m - 1]
    m1 = m - 1

    def run(hay) -> list[int]:
        n = len(hay)
        out: list[int] = []
        r = m  # the first character past the window
        nl = n - 1
        while r < nl:
            if hay[r - 1] == last and hay[r - m] == first and hay.startswith(inner, r - m1):
                out.append(r - m)
            r += tbl[hay[r]][hay[r + 1]]
        while r <= n:
            # the last windows: one lookahead character (Sunday shift), then none
            if hay[r - 1] == last and hay[r - m] == first and hay.startswith(inner, r - m1):
                out.append(r - m)
            if r == n:
                break
            r += qs[hay[r]]
        return out

    return run


def _match_length(hay, s: bytes, i: int) -> int:
    """Length of the common prefix of s and the text at i, for i + len(s) <= n.

    Raw bytes compare in C: gallop, then bisect on prefixes of s.  Any other
    haystack is read left to right through ``hay[i + k]``: k + 1 reads on a
    first mismatch at k, len(s) on a match."""
    if type(hay) is not bytes:
        for k, c in enumerate(s):
            if hay[i + k] != c:
                return k
        return len(s)
    if hay.startswith(s, i):
        return len(s)
    lo, hi = 0, 1  # after the gallop: s[:lo] matches at i, s[:hi] does not
    while hay.startswith(s[:hi], i):
        lo, hi = hi, min(2 * hi, len(s))
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if hay.startswith(s[:mid], i):
            lo = mid
        else:
            hi = mid
    return lo


def compile_fjs(p: bytes):
    """FJS hybrid: Quick-Search skips while the window's last character
    mismatches, KMP verification once anchored.  The KMP carry-over keeps
    the worst case linear."""
    m = len(p)
    qs = _sunday_table(p)
    fail = kmp_failure(p)
    last = p[m - 1]
    border = fail[m]
    d = m - border
    # p's period continued past its end, about 4 KiB (none without a border)
    ext = p[border:] * (4096 // d + 1) if border else b""

    def run(hay) -> list[int]:
        n = len(hay)
        out: list[int] = []
        nl = n - 1
        r = m1 = m - 1  # r: the window's last character
        j = 0
        while r < n:
            stop = m  # a carried-over prefix is compared to the window's end
            if j == 0:
                while r < nl and hay[r] != last:
                    r += qs[hay[r + 1]]
                # the text's last window has no lookahead: its last character
                # is read here, and a mismatch or a window past the end stops
                if r >= nl and (r > nl or hay[r] != last):
                    return out
                stop = m1  # the anchored window's last character matched
            pos = r - m1
            while j < stop and hay[pos + j] == p[j]:
                j += 1
            if j == stop:
                out.append(pos)
                r += d  # the KMP step from j = m: fail[m] = border
                j = border
                # short runs cost less in the loop than a call per block
                if not (ext and len(out) > 7 and out[-8] == pos - 7 * d):
                    continue
                e = pos + m  # the first character past the matched window
                while True:
                    # only the windows that fit inside the text
                    block = ext if n - e >= len(ext) else ext[: (n - e) // d * d]
                    if not block:
                        return out
                    k = _match_length(hay, block, e)
                    out.extend(range(e - m + d, e - m + k + 1, d))
                    e += k
                    if k < len(block):
                        break
                # the KMP loop's state at the mismatching window, whose
                # mismatch at e has been read
                j = border + k % d
                r = e - j + m1
            if j == 0:
                r += 1
            else:
                f = fail[j]
                r += j - f
                j = f
        return out

    return run


#: q-gram hash sum(c << (q - 1 - k)) of hay[b : b + q], one expression per
#: q whose q reads run left to right, as in the unrolled per-q reference code
_GRAMS = {
    3: lambda h, b: (h[b] << 2) + (h[b + 1] << 1) + h[b + 2],
    5: lambda h, b: (h[b] << 4) + (h[b + 1] << 3) + (h[b + 2] << 2) + (h[b + 3] << 1) + h[b + 4],
    8: lambda h, b: ((h[b] << 7) + (h[b + 1] << 6) + (h[b + 2] << 5) + (h[b + 3] << 4)
                     + (h[b + 4] << 3) + (h[b + 5] << 2) + (h[b + 6] << 1) + h[b + 7]),
}

HASH_GRAM_LENGTHS = tuple(_GRAMS)


def compile_hashq(q: int, p: bytes):
    """HASHq: shift table keyed on the hash of the window's last q-gram.

    A zero shift marks a candidate alignment; after verifying it the
    window advances by the precomputed next-smallest shift for that hash.
    Hash collisions only cause extra verification, never a miss.
    """
    if q not in HASH_GRAM_LENGTHS:
        raise ValueError(f"q must be one of {HASH_GRAM_LENGTHS}, got {q}")
    m = len(p)
    # a q-gram hashes to sum(c << (q - 1 - k)) <= 255 * (2**q - 1), so a
    # table of 255 << q entries is indexed without a mask
    tbl = [m - q + 1] * (255 << q)
    h = 0
    for i in range(m):
        # roll the hash to the q-gram ending at i; shifts shrink as i grows,
        # so the last write for a hash is its smallest
        h = (h << 1) + p[i] - (p[i - q] << q if i >= q else 0)
        if q - 1 <= i < m - 1:
            tbl[h] = m - 1 - i
    advance = tbl[h]  # h is now the hash of the last q-gram
    tbl[h] = 0

    gram = _GRAMS[q]
    span = m - q

    def run(hay) -> list[int]:
        out: list[int] = []
        b = span  # the start of the window's last q-gram
        hi = len(hay) - q
        while b <= hi:
            s = tbl[gram(hay, b)]  # no mask needed: the hash < len(tbl)
            if s:
                b += s
            else:
                if hay.startswith(p, b - span):
                    out.append(b - span)
                b += advance
        return out

    return run


def _bit_table(bit: int) -> bytes:
    # translate table sending each byte value to its bit `bit`, as 0 or 1
    return (bytes(1 << bit) + b"\1" * (1 << bit)) * (128 >> bit)


def _pick_filter_bit(p: bytes) -> int:
    # most informative bit position across the pattern's characters;
    # ties prefer the most significant bit
    m = len(p)
    best_bit = 7
    best_balance = -1
    for bit in range(7, -1, -1):
        ones = p.translate(_bit_table(bit)).count(1)
        balance = min(ones, m - ones)
        if balance > best_balance:
            best_balance = balance
            best_bit = bit
    return best_bit


#: SSEF's text block: 16 characters, one filter bit each, as one 16-byte
#: SSE register gives a 16-bit fingerprint through one movemask
_BLOCK = 16


def _fingerprint_offsets(bits: bytes) -> dict[bytes, list[int]]:
    # in-pattern offsets j, ascending, grouped by the _BLOCK filter bits
    # bits[j : j + _BLOCK] of the pattern's block starting at j
    fps: dict[bytes, list[int]] = {}
    for j in range(len(bits) - _BLOCK + 1):
        fps.setdefault(bits[j : j + _BLOCK], []).append(j)
    return fps


def compile_ssef(p: bytes):
    """SSEF-style fingerprint filter for long patterns (m >= 32).

    One filter bit per character of a 16-character (``_BLOCK``) text
    block; blocks are sampled every ``m - 15`` positions, so any occurrence
    fully contains one sample.  A block is read one character at a time
    and turned into its fingerprint, one 0/1 byte per character, by one
    ``translate``.  Fingerprint hits map back to the matching in-pattern
    offsets, and only those alignments are verified.
    """
    m = len(p)
    stride = m - _BLOCK + 1
    tab = _bit_table(_pick_filter_bit(p))
    fps = _fingerprint_offsets(p.translate(tab))

    def run(hay) -> list[int]:
        n = len(hay)
        out: list[int] = []
        if m > n:
            return out
        hi_block = n - _BLOCK
        hi_start = n - m
        # the block comprehension makes `hay` a cell variable; the verify
        # loop calls through a fast local instead
        startswith = hay.startswith
        s = 0
        while s <= hi_block:
            offs = fps.get(bytes([hay[i] for i in range(s, s + _BLOCK)]).translate(tab))
            if offs is not None:
                # consecutive sampled blocks cover disjoint start ranges,
                # so descending offsets keep the output ascending
                for j in reversed(offs):
                    i = s - j
                    if 0 <= i <= hi_start and startswith(p, i):
                        out.append(i)
            s += stride
        return out

    return run
