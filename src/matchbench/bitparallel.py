"""Bit-parallel searchers: the Shift-Or/Shift-And pair and the BNDM family.

States are Python ints used as packed bit vectors.  An int holding m bits
is the ceil(m/W)-machine-word state the word-level algorithms maintain,
W being ``core.W``; carry propagation between words happens inside
the arbitrary-precision arithmetic, so the per-character cost still
scales with ceil(m/W).

SBNDM, SBNDMq and FSBNDM are one simplified-BNDM scan: SBNDM is SBNDMq
at q = 1, and FSBNDM is the same scan over the pattern extended by a
trailing wildcard.

The ``compile_*`` factories assume the bounds of their registry rows
(the BNDM family m <= W, FSBNDM m <= W-1 for its lookahead bit, SBNDMq
m >= q) and are reached through those descriptors, which check them.
"""

from __future__ import annotations

from .comparison import _horspool_table, kmp_failure
from .core import W


def forward_masks(p: bytes) -> list[int]:
    """bit j of table[c] set iff p[j] == c."""
    tbl = [0] * 256
    for j, c in enumerate(p):
        tbl[c] |= 1 << j
    return tbl


def backward_masks(p: bytes) -> list[int]:
    """bit (m-1-i) of table[c] set iff p[i] == c (reversed-pattern convention)."""
    return forward_masks(p[::-1])


def compile_so(p: bytes):
    """Shift-Or: one state update per text character, no early exit.

    Works for any m; for m > W the state simply spans ceil(m/W) words.
    """
    m = len(p)
    mask = (1 << m) - 1
    B = [(~v) & mask for v in forward_masks(p)]
    high = 1 << (m - 1)

    def run(hay) -> list[int]:
        out: list[int] = []
        append = out.append
        state = mask
        i = 0
        for c in hay:
            state = ((state << 1) | B[c]) & mask
            if state & high == 0:
                append(i - m + 1)
            i += 1
        return out

    return run


def compile_sa(p: bytes):
    """Shift-And: dual of Shift-Or with the complemented convention."""
    m = len(p)
    B = forward_masks(p)
    high = 1 << (m - 1)

    def run(hay) -> list[int]:
        out: list[int] = []
        append = out.append
        state = 0
        i = 0
        for c in hay:
            state = ((state << 1) | 1) & B[c]
            if state & high:
                append(i - m + 1)
            i += 1
        return out

    return run


def compile_bndm(p: bytes):
    """BNDM: backward scan of the nondeterministic suffix automaton of the
    reversed pattern; shift = window start of the last recognized prefix."""
    m = len(p)
    B = backward_masks(p)
    mask = (1 << m) - 1
    high = 1 << (m - 1)

    def run(hay) -> list[int]:
        n = len(hay)
        out: list[int] = []
        pos = 0
        end = n - m
        while pos <= end:
            j = m - 1
            last = m
            D = mask
            while True:
                D &= B[hay[pos + j]]
                if D == 0:
                    break
                if D & high:
                    if j > 0:
                        last = j
                    else:
                        out.append(pos)
                        break
                if j == 0:
                    break
                D <<= 1  # the next AND with B clears bit m
                j -= 1
            pos += last
        return out

    return run


SBNDM_GRAM_LENGTHS = (1, 2, 4, 6, 8)


def _sbndm_scan(B: list[int], m: int, q: int, per: int):
    """Simplified BNDM over m-bit masks B: enter each window by q - 1
    unconditional backward steps from its last character, skip it on a
    dead state, else run the backward loop; a full-window survivor is an
    occurrence (no re-verification needed) and shifts by ``per``."""
    q_end = m - q

    def run(hay) -> list[int]:
        n = len(hay)
        out: list[int] = []
        pos = 0
        end = n - m
        while pos <= end:
            j = m - 1
            D = B[hay[pos + j]]
            while j > q_end:
                j -= 1
                D = (D << 1) & B[hay[pos + j]]
            if D == 0:
                pos += j + 1
                continue
            while j > 0:
                j -= 1
                D = (D << 1) & B[hay[pos + j]]
                if D == 0:
                    break
            if D:
                out.append(pos)
                pos += per
            else:
                pos += j + 1
        return out

    return run


def compile_sbndmq(q: int, p: bytes):
    """SBNDMq: simplified BNDM entering each window through its last q
    characters; q = 1 is plain SBNDM."""
    if q not in SBNDM_GRAM_LENGTHS:
        raise ValueError(f"q must be one of {SBNDM_GRAM_LENGTHS}, got {q}")
    m = len(p)
    return _sbndm_scan(backward_masks(p), m, q, m - kmp_failure(p)[m])


def compile_fsbndm(p: bytes):
    """Forward SBNDM: the (m+1)-bit state carries one lookahead character.

    This is simplified BNDM over the pattern extended by a trailing
    wildcard, which is why every mask keeps bit 0 set.  It enters with
    q = 2: the lookahead alone can never kill the state.
    """
    m = len(p)
    scan = _sbndm_scan([(v << 1) | 1 for v in backward_masks(p)], m + 1, 2, m - kmp_failure(p)[m])

    def run(hay) -> list[int]:
        out = scan(hay)
        # the last alignment has no lookahead character; check it directly
        end = len(hay) - m
        if end >= 0 and hay.startswith(p, end):
            out.append(end)
        return out

    return run


def _superimposed_masks(p: bytes) -> tuple[list[int], int, int]:
    # reduced position j accepts any character of its k-wide slice of p;
    # remainder characters join the last class
    m = len(p)
    k = -(-m // W)
    ell = m // k
    B = [0] * 256
    for j in range(ell):
        hi = (j + 1) * k if j < ell - 1 else m
        bit = 1 << (ell - 1 - j)
        for c in p[j * k : hi]:
            B[c] |= bit
    return B, ell, k


def compile_lbndm(p: bytes):
    """LBNDM: simplified BNDM over the superimposed pattern as a filter for
    long patterns; every filter hit is verified against the full pattern.

    The filter scans the text subsampled at stride k; a surviving reduced
    window at text offset base covers the candidate starts (base-k, base],
    verified in ascending order.  With m <= W the superimposition factor k
    is 1, but this is still not BNDM: a dead window shifts by j + 1, not to
    the last recognised prefix, and every survivor is verified, so its
    reads differ from BNDM's.
    """
    m = len(p)
    B, ell, k = _superimposed_masks(p)

    def run(hay) -> list[int]:
        n = len(hay)
        out: list[int] = []
        if m > n:
            return out
        hi_start = n - m
        end_red = (n - 1) // k + 1 - ell
        r = 0
        while r <= end_red:
            D = B[hay[(r + ell - 1) * k]]
            if D == 0:
                r += ell
                continue
            j = ell - 1
            while j > 0:
                j -= 1
                D = (D << 1) & B[hay[(r + j) * k]]
                if D == 0:
                    break
            if D:
                base = r * k
                lo = base - k + 1
                hi = base if base <= hi_start else hi_start
                for i in range(lo if lo > 0 else 0, hi + 1):
                    if hay.startswith(p, i):
                        out.append(i)
                r += 1
            else:
                r += j + 1
        return out

    return run


def compile_sbndm_bmh(p: bytes):
    """SBNDM with Horspool shift: take the larger of the BNDM-test shift
    and the bad-character shift of the window's last character."""
    m = len(p)
    B = backward_masks(p)
    hs = _horspool_table(p)
    per = m - kmp_failure(p)[m]

    def run(hay) -> list[int]:
        n = len(hay)
        out: list[int] = []
        pos = 0
        end = n - m
        while pos <= end:
            c = hay[pos + m - 1]
            D = B[c]
            if D == 0:
                pos += m
                continue
            j = m - 1
            while j > 0:
                j -= 1
                D = (D << 1) & B[hay[pos + j]]
                if D == 0:
                    break
            if D:
                out.append(pos)
                base = per
            else:
                base = j + 1
            h = hs[c]
            pos += h if h > base else base
        return out

    return run


def compile_bmh_sbndm(p: bytes):
    """Horspool with BNDM test: always advance by the bad-character shift;
    windows whose last character occurs in the pattern get the bit-parallel
    backward test."""
    m = len(p)
    B = backward_masks(p)
    hs = _horspool_table(p)

    def run(hay) -> list[int]:
        n = len(hay)
        out: list[int] = []
        pos = 0
        end = n - m
        while pos <= end:
            c = hay[pos + m - 1]
            D = B[c]
            if D:
                j = m - 1
                while j > 0:
                    j -= 1
                    D = (D << 1) & B[hay[pos + j]]
                    if D == 0:
                        break
                if D:
                    out.append(pos)
            pos += hs[c]
        return out

    return run
