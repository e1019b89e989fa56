"""Factor-oracle searchers: BOM and its two-character-entry variant EBOM.

Both scan each window right to left through the factor oracle of the
reversed pattern, the transition table ``_factor_oracle(p[::-1])``.  The
oracle may accept a few words that are not factors; that slack is safe
because full-window survival only gates a verification.
"""

from __future__ import annotations


def _factor_oracle(word: bytes) -> list[dict[int, int]]:
    """Transitions of the factor oracle of ``word`` (Allauzen-Crochemore-
    Raffinot on-line build): states 0..m, at most 2m-1 transitions in all.
    Accepts at least every factor of the word."""
    m = len(word)
    trans: list[dict[int, int]] = [dict() for _ in range(m + 1)]
    supply = [-1] * (m + 1)
    for i in range(1, m + 1):
        c = word[i - 1]
        trans[i - 1][c] = i
        k = supply[i - 1]
        while k > -1 and c not in trans[k]:
            trans[k][c] = i
            k = supply[k]
        supply[i] = 0 if k == -1 else trans[k][c]
    return trans


def compile_bom(p: bytes):
    """Backward Oracle Matching: on transition failure after k consumed
    characters shift by m-k; on full survival verify and shift by 1."""
    m = len(p)
    trans = _factor_oracle(p[::-1])

    def run(hay) -> list[int]:
        n = len(hay)
        out: list[int] = []
        pos = 0
        end = n - m
        while pos <= end:
            state = 0
            j = m - 1
            while j >= 0:
                nxt = trans[state].get(hay[pos + j])
                if nxt is None:
                    break
                state = nxt
                j -= 1
            if j >= 0:
                pos += j + 1
            else:
                if hay.startswith(p, pos):
                    out.append(pos)
                pos += 1
        return out

    return run


def compile_ebom(p: bytes):
    """Extended BOM: enters each window through a 256x256 table
    ``ft[c1][c2]`` holding the oracle state after the window's last two
    characters, c1 then c2.  Only p's characters get a row of their own; all
    others share one all-``None`` row, which saves memory and keeps the scan
    on a few rows.

    Shifts mirror BOM's exactly (a dead first character still shifts by m),
    so the two-character entry costs at most one extra read per window.
    The scan indexes each window by its last character, as ``comparison``'s
    loops do.
    """
    m = len(p)
    trans = _factor_oracle(p[::-1])
    dead = [None] * 256
    ft: list[list[int | None]] = [dead] * 256
    for c1, s1 in trans[0].items():
        row = dead.copy()
        for c2, s2 in trans[s1].items():
            row[c2] = s2
        ft[c1] = row

    def run(hay) -> list[int]:
        n = len(hay)
        out: list[int] = []
        r = m - 1  # the window's last character; it starts at r - m + 1
        while r < n:
            row = ft[hay[r]]
            state = row[hay[r - 1]]
            if state is None:
                r += m if row is dead else m - 1
                continue
            lo = r - m  # the position before the window
            i = r - 2
            while i > lo:
                nxt = trans[state].get(hay[i])
                if nxt is None:
                    break
                state = nxt
                i -= 1
            if i > lo:
                r = i + m  # the next window starts just past the dead character
            else:
                if hay.startswith(p, lo + 1):
                    out.append(lo + 1)
                r += 1
        return out

    return run
