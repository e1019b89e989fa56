"""Algorithm catalog and the alphabet-size x pattern-length selection map.

The registry lists every implemented searcher with its family and
applicability bounds (the "-" cells of the result tables fall out of
those bounds).  A row is also the one place its bounds are checked: its
``compile`` raises ApplicabilityError outside them, so the ``compile_*``
factories assume them and are reached through descriptors.

The default selection map records the winning algorithm per (sigma
class, m class) cell; cells without a stated winner carry the best entry
of the matching result tables and are tagged "derived-fill" so reports
can tell the two apart.  ``_M_MAX`` and ``_SIGMA_MIN`` are the one
statement of the class bounds, and ``classify`` returns the cell key.

``select_applicable`` returns a guarded copy of the row it picks: same
id, family and bounds, but for a periodic needle (``periodic_needle``)
its ``compile`` hands back FJS's searcher, whose KMP carry-over keeps
the reads linear where the shift and filter scans read Theta(m)
characters per text character.  The rows of ``REGISTRY`` stay unguarded.
``AlgorithmDescriptor`` stays a frozen dataclass: callers derive traced or
deliberately broken rows with ``dataclasses.replace``, so ``search`` pays its import.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

from . import automata, bitparallel, comparison
from .core import W, ApplicabilityError, as_haystack, as_needle

COMPARISON = "comparison"
AUTOMATA = "automata"
BIT_PARALLEL = "bit-parallel"


@dataclass(frozen=True)
class AlgorithmDescriptor:
    """Identity, family and applicability bounds of one searcher.

    ``compile`` is gated by the bounds: outside them it raises
    ApplicabilityError before the factory it wraps runs.
    """

    id: str
    family: str
    m_min: int
    m_max: int | None  # inclusive; None = unbounded
    compile: Callable[[bytes], Callable] = field(compare=False, repr=False)

    def __post_init__(self):
        factory = self.compile
        bound = f"m >= {self.m_min}" if self.m_max is None else f"{self.m_min} <= m <= {self.m_max}"

        def gated(p: bytes):
            if not self.applicable(len(p)):
                raise ApplicabilityError(self.id, len(p), bound)
            return factory(p)

        object.__setattr__(self, "compile", gated)

    def applicable(self, m: int) -> bool:
        if m < self.m_min:
            return False
        return self.m_max is None or m <= self.m_max

    def search(self, pattern, text) -> list[int]:
        return self.compile(as_needle(pattern))(as_haystack(text))


#: All implemented algorithms in canonical order (family, then age).
REGISTRY: tuple[AlgorithmDescriptor, ...] = (
    AlgorithmDescriptor("HOR", COMPARISON, 1, None, comparison.compile_hor),
    AlgorithmDescriptor("QS", COMPARISON, 1, None, comparison.compile_qs),
    AlgorithmDescriptor("BR", COMPARISON, 1, None, comparison.compile_br),
    AlgorithmDescriptor("TVSBS", COMPARISON, 1, None, comparison.compile_tvsbs),
    AlgorithmDescriptor("FJS", COMPARISON, 1, None, comparison.compile_fjs),
    AlgorithmDescriptor("HASH3", COMPARISON, 3, None, partial(comparison.compile_hashq, 3)),
    AlgorithmDescriptor("HASH5", COMPARISON, 5, None, partial(comparison.compile_hashq, 5)),
    AlgorithmDescriptor("HASH8", COMPARISON, 8, None, partial(comparison.compile_hashq, 8)),
    AlgorithmDescriptor("SSEF", COMPARISON, 32, None, comparison.compile_ssef),
    AlgorithmDescriptor("BOM", AUTOMATA, 1, None, automata.compile_bom),
    AlgorithmDescriptor("EBOM", AUTOMATA, 2, None, automata.compile_ebom),
    AlgorithmDescriptor("SO", BIT_PARALLEL, 1, None, bitparallel.compile_so),
    AlgorithmDescriptor("SA", BIT_PARALLEL, 1, None, bitparallel.compile_sa),
    AlgorithmDescriptor("BNDM", BIT_PARALLEL, 1, W, bitparallel.compile_bndm),
    AlgorithmDescriptor("SBNDM", BIT_PARALLEL, 1, W, partial(bitparallel.compile_sbndmq, 1)),
    AlgorithmDescriptor("LBNDM", BIT_PARALLEL, 1, None, bitparallel.compile_lbndm),
    AlgorithmDescriptor("SBNDM-BMH", BIT_PARALLEL, 1, W, bitparallel.compile_sbndm_bmh),
    AlgorithmDescriptor("BMH-SBNDM", BIT_PARALLEL, 1, W, bitparallel.compile_bmh_sbndm),
    AlgorithmDescriptor("FSBNDM", BIT_PARALLEL, 1, W - 1, bitparallel.compile_fsbndm),
    AlgorithmDescriptor("SBNDMq2", BIT_PARALLEL, 2, W, partial(bitparallel.compile_sbndmq, 2)),
    AlgorithmDescriptor("SBNDMq4", BIT_PARALLEL, 4, W, partial(bitparallel.compile_sbndmq, 4)),
    AlgorithmDescriptor("SBNDMq6", BIT_PARALLEL, 6, W, partial(bitparallel.compile_sbndmq, 6)),
    AlgorithmDescriptor("SBNDMq8", BIT_PARALLEL, 8, W, partial(bitparallel.compile_sbndmq, 8)),
)

_BY_ID = {a.id.upper(): a for a in REGISTRY}


def get_algorithm(algo_id: str) -> AlgorithmDescriptor:
    """Case-insensitive registry lookup."""
    try:
        return _BY_ID[algo_id.upper()]
    except KeyError:
        raise KeyError(f"unknown algorithm {algo_id!r}; known: {', '.join(a.id for a in REGISTRY)}") from None


def applicable_algorithms(m: int) -> list[AlgorithmDescriptor]:
    """All registry entries whose bounds admit pattern length m."""
    if m < 1:
        raise ValueError("pattern length must be >= 1")
    return [a for a in REGISTRY if a.applicable(m)]


M_CLASSES = ("very_short", "short", "long", "very_long")
SIGMA_CLASSES = ("very_small", "small", "large", "very_large")

# the class bounds, stated once: m classes end at _M_MAX, sigma classes start at _SIGMA_MIN
_M_MAX = (4, 32, 256)
_SIGMA_MIN = (4, 32, 128)


def classify(sigma: int, m: int) -> tuple[str, str]:
    """The (sigma_class, m_class) key of the selection-map cell."""
    if not 1 <= sigma <= 256:
        raise ValueError(f"alphabet size must be in [1, 256], got {sigma}")
    if m < 1:
        raise ValueError("pattern length must be >= 1")
    return SIGMA_CLASSES[bisect_right(_SIGMA_MIN, sigma)], M_CLASSES[bisect_left(_M_MAX, m)]


PAPER_STATED = "paper-stated"
DERIVED_FILL = "derived-fill"
MEASURED = "measured"


@dataclass(frozen=True)
class MapCell:
    algorithm: str
    provenance: str
    alternates: tuple[str, ...] = ()


@dataclass(frozen=True)
class SelectionMap:
    """Total (sigma_class, m_class) -> algorithm table with provenance tags."""

    cells: dict[tuple[str, str], MapCell]

    def cell(self, sigma_class: str, m_class: str) -> MapCell:
        return self.cells[(sigma_class, m_class)]

    def to_csv(self) -> str:
        lines = ["sigma_class,m_class,algorithm,provenance"]
        for sc in SIGMA_CLASSES:
            for mc in M_CLASSES:
                cell = self.cells[(sc, mc)]
                lines.append(f"{sc},{mc},{cell.algorithm},{cell.provenance}")
        return "\n".join(lines) + "\n"

    def to_markdown(self) -> str:
        lines = [
            "| sigma \\ m | " + " | ".join(M_CLASSES) + " |",
            "|---|" + "---|" * len(M_CLASSES),
        ]
        for sc in SIGMA_CLASSES:
            cells = []
            for mc in M_CLASSES:
                cell = self.cells[(sc, mc)]
                cells.append(f"{cell.algorithm} [{cell.provenance}]")
            lines.append(f"| {sc} | " + " | ".join(cells) + " |")
        return "\n".join(lines) + "\n"


DEFAULT_SELECTION_MAP = SelectionMap({
    ("very_small", "very_short"): MapCell("SA", PAPER_STATED),
    ("very_small", "short"): MapCell("HASH5", DERIVED_FILL),
    ("very_small", "long"): MapCell("HASH8", DERIVED_FILL),
    ("very_small", "very_long"): MapCell("SSEF", PAPER_STATED),
    ("small", "very_short"): MapCell("TVSBS", PAPER_STATED),
    ("small", "short"): MapCell("HASH5", PAPER_STATED),
    ("small", "long"): MapCell("HASH8", PAPER_STATED, ("SBNDMq4",)),
    ("small", "very_long"): MapCell("SSEF", PAPER_STATED),
    ("large", "very_short"): MapCell("FJS", PAPER_STATED),
    ("large", "short"): MapCell("EBOM", PAPER_STATED),
    ("large", "long"): MapCell("FSBNDM", PAPER_STATED, ("TVSBS",)),
    ("large", "very_long"): MapCell("SSEF", PAPER_STATED),
    ("very_large", "very_short"): MapCell("FJS", PAPER_STATED),
    ("very_large", "short"): MapCell("EBOM", PAPER_STATED, ("SBNDM-BMH", "BMH-SBNDM")),
    ("very_large", "long"): MapCell("FSBNDM", PAPER_STATED),
    ("very_large", "very_long"): MapCell("LBNDM", PAPER_STATED),
})


def select(sigma: int, m: int, selection_map: SelectionMap = DEFAULT_SELECTION_MAP) -> AlgorithmDescriptor:
    """Map entry for the (sigma, m) cell, regardless of exact-m bounds."""
    return get_algorithm(selection_map.cell(*classify(sigma, m)).algorithm)


# Total (m_min = 1) and, unlike the filters SSEF and HASH3, it reads fewer
# characters as m grows.  At sigma = 256, m = 64..256 on 1 MiB random text
# it reads 0.006-0.018 chars per text char where SSEF reads 0.067-0.33.
_FALLBACK_ID = "HOR"


def _periodic_half(u: bytes) -> bool:
    # if u has a period of at most h // 4, then by Fine-Wilf the first
    # occurrence of u[:h - h // 4] after 0 is its smallest period
    h = len(u)
    d = u.find(u[:h - h // 4], 1)
    return 0 < d <= h // 4 and u[d:] == u[:-d]


def periodic_needle(p: bytes) -> bool:
    """True when m >= 8 and the first or the last m // 2 characters of p
    have a period of at most a quarter of their length."""
    h = len(p) // 2
    return h >= 4 and (_periodic_half(p[:h]) or _periodic_half(p[-h:]))


def _guarded(algo: AlgorithmDescriptor, p: bytes):
    return _BY_ID["FJS"].compile(p) if periodic_needle(p) else algo.compile(p)


# SO, SA and FJS read linearly on every input and need no guard
_GUARDED = {a.id: AlgorithmDescriptor(a.id, a.family, a.m_min, a.m_max, partial(_guarded, a))
            for a in REGISTRY if a.id not in ("SO", "SA", "FJS")}


def select_applicable(sigma: int, m: int, selection_map: SelectionMap = DEFAULT_SELECTION_MAP) -> AlgorithmDescriptor:
    """Like select(), but guarantees the result is applicable at m.

    The map winner can be gated by the word width inside its own cell
    (e.g. the long-pattern cells at m > W); the cell alternates and then
    HOR, which every m admits, cover those lengths.  The result is the
    pick's guarded row: it keeps the pick's id, but its ``compile`` may
    hand back FJS's searcher for a periodic needle.
    """
    cell = selection_map.cell(*classify(sigma, m))
    for algo_id in (cell.algorithm, *cell.alternates, _FALLBACK_ID):
        algo = get_algorithm(algo_id)
        if algo.applicable(m):
            return _GUARDED.get(algo.id, algo)
