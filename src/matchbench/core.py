"""Core domain types, the corpus loader and the reference search oracle.

Patterns and texts are byte strings: :func:`as_bytes` is the one place
that decides what counts as one, and every entry point converts through
it, so searchers see only ``bytes`` or an :class:`InstrumentedText`.  Raw
``bytes`` is the fast path; :class:`InstrumentedText` wraps a text and
counts every single-character read, which is the machine-independent cost
metric used by the benchmark's "reads" mode.  To keep that accounting
honest, no searcher in this package ever slices the haystack: text access
is one character at a time, or one ``startswith(p, i)`` window check,
which :class:`InstrumentedText` counts as a left-to-right compare.  The
value types are :class:`Record` classes, not dataclasses: loading a corpus
imports only this module and ``bench``, and ``dataclasses`` costs more than both.
"""

from __future__ import annotations

import warnings
from pathlib import Path


#: Bit width of the machine word the bit-parallel bounds and the LBNDM
#: table shape assume; the paper's tables are stated at this width.
W = 64

#: The standard alphabet sizes of generated random texts.
ALLOWED_SIGMAS = (2, 4, 8, 16, 32, 64, 128, 256)


class ApplicabilityError(ValueError):
    """An algorithm was asked to run outside its pattern-length bounds."""

    def __init__(self, algorithm: str, m: int, bound: str):
        self.algorithm = algorithm
        self.m = m
        self.bound = bound
        super().__init__(f"{algorithm} is not applicable at m={m}: requires {bound}")


def as_bytes(x) -> bytes:
    """``x`` as ``bytes``: any bytes-like object is accepted; an int, a str
    or a list raises TypeError (``bytes(3)`` would be three NULs)."""
    return x if type(x) is bytes else bytes(memoryview(x))


_ALPHABET_HEAD = 4096
_ALL_BYTES = bytes(range(256))


class Record:
    """Immutable ``__slots__`` fields set by ``__init__``; eq, hash and repr as a frozen dataclass's."""

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"field {name!r} is read-only")

    __delattr__ = __setattr__

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(f'{n}={getattr(self, n)!r}' for n in self.__slots__)})"

    def __reduce__(self):
        return type(self), self._values()


class Text(Record):
    """Immutable haystack of raw byte values with a short label."""

    __slots__ = ("data", "id")

    def __init__(self, data: bytes, id: str = "text"):
        super().__init__(as_bytes(data), id)
        if not id:
            raise ValueError("text id must be non-empty")

    def __len__(self) -> int:
        return len(self.data)

    def alphabet_size(self) -> int:
        """Number of distinct byte values present, exactly ``len(set(data))``.

        Computed in C: one ``translate`` pass deletes the symbols of a 4 KiB
        head, then each byte value the head lacks is looked up in the rest
        (a ``memchr`` scan).  A head that holds all 256 values skips both.
        The worst case, a long rest lacking most byte values, costs about
        255 scans, on the order of ``len(set(data))``.
        """
        seen = bytes(set(self.data[:_ALPHABET_HEAD]))
        if len(seen) == 256:
            return 256
        rest = self.data.translate(None, seen)
        if not rest:
            return len(seen)
        unseen = _ALL_BYTES.translate(None, seen)
        return len(seen) + sum(unseen[i : i + 1] in rest for i in range(len(unseen)))


class Pattern(Record):
    """Immutable needle; the empty pattern is rejected."""

    __slots__ = ("data",)

    def __init__(self, data: bytes):
        object.__setattr__(self, "data", as_bytes(data))  # directly: as_needle makes one per search
        if len(self.data) == 0:
            raise ValueError("pattern must have length >= 1")

    def __len__(self) -> int:
        return len(self.data)


class InstrumentedText:
    """Wraps a text and counts every single-character access.

    Searching through the wrapper returns exactly the same occurrences as
    searching the raw bytes; only the accounting is added.  The counter
    never decreases.  Not thread-safe: one counter, no locking.
    """

    __slots__ = ("data", "reads")

    def __init__(self, text: Text | bytes):
        self.data = text.data if isinstance(text, Text) else as_bytes(text)
        self.reads = 0

    def __len__(self) -> int:
        return len(self.data)

    def __getitem__(self, i: int) -> int:
        if isinstance(i, slice):
            raise TypeError("sliced access would hide reads; index one character at a time")
        self.reads += 1
        return self.data[i]

    def __iter__(self):
        for c in self.data:
            self.reads += 1
            yield c

    def startswith(self, p: bytes, i: int) -> bool:
        """``bytes.startswith(p, i)`` for 0 <= i <= n - m, counted as a left
        to right compare: k + 1 reads on a first mismatch at k, m on a match.
        The compare itself runs in C; only a miss walks to its mismatch."""
        data = self.data
        if data.startswith(p, i):
            self.reads += len(p)
            return True
        k = 0
        while data[i + k] == p[k]:  # a miss in range has a mismatch
            k += 1
        self.reads += k + 1
        return False


def as_haystack(text) -> bytes | InstrumentedText:
    """An InstrumentedText unchanged, anything else as raw bytes."""
    if isinstance(text, InstrumentedText):
        return text
    return text.data if isinstance(text, Text) else as_bytes(text)


def as_needle(pattern) -> bytes:
    """Pattern bytes, rejecting the empty needle."""
    return (pattern if isinstance(pattern, Pattern) else Pattern(pattern)).data


def brute_force_search(pattern, text) -> list[int]:
    """Check every alignment of the pattern against the text.

    Returns all 0-based start positions, overlapping occurrences included,
    in ascending order.  A pattern longer than the text yields an empty
    result.  This is the oracle every other searcher is tested against.
    """
    p = as_needle(pattern)
    hay = as_haystack(text)
    n, m = len(hay), len(p)
    out: list[int] = []
    if m > n:
        return out
    first = p[0]
    for i in range(n - m + 1):
        if hay[i] != first:
            continue
        k = 1
        while k < m and hay[i + k] == p[k]:
            k += 1
        if k == m:
            out.append(i)
    return out


#: (length in bytes, approximate distinct characters) of the reference corpora.
CORPUS_EXPECTATIONS = {
    "ecoli": (4_638_690, 4),
    "bible": (4_047_392, 63),
    "world192": (2_473_400, 94),
    "hs": (3_295_751, 20),
}


def load_corpus(path, expected_id: str | None = None) -> Text:
    """Load a corpus file as raw bytes.

    For the known corpus ids the loader checks the advisory length and
    alphabet expectations; mismatches warn rather than fail, since corpus
    editions vary.
    """
    path = Path(path)
    data = path.read_bytes()
    text_id = expected_id or path.stem
    text = Text(data, text_id)
    expected = CORPUS_EXPECTATIONS.get(text_id)
    if expected is not None:
        exp_n, exp_sigma = expected
        if len(data) != exp_n:
            warnings.warn(
                f"corpus {text_id!r}: expected n={exp_n:,} bytes, got {len(data):,}"
                " (different edition?)",
                stacklevel=2,
            )
        sigma = text.alphabet_size()
        if abs(sigma - exp_sigma) > 2:
            warnings.warn(
                f"corpus {text_id!r}: expected sigma~{exp_sigma}, got {sigma}",
                stacklevel=2,
            )
    return text
