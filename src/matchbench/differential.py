"""Randomized differential testing of every searcher against brute force.

Cases span the standard alphabet sizes, text lengths up to a cap, and
each algorithm's full applicability range.  Patterns are a
mix of extractions from the text (guaranteed occurrences), random strings
and single-byte mutations of extractions (near misses).  Any disagreement
with the brute-force oracle is reported with enough detail to regenerate
the case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .bench import _pcg64, derive_seed
from .core import ALLOWED_SIGMAS, brute_force_search
from .registry import REGISTRY, AlgorithmDescriptor

DEFAULT_MAX_N = 4096
# mismatches collected before the run stops
_STOP_AFTER = 20
_KINDS = ("extracted", "random", "mutated")


@dataclass(frozen=True)
class Mismatch:
    """Minimal reproducer for one failed case."""

    algorithm: str
    sigma: int
    n: int
    m: int
    case_seed: int
    kind: str
    expected: tuple[int, ...]
    got: tuple[int, ...]

    def describe(self) -> str:
        exp, got = set(self.expected), set(self.got)
        missing = sorted(exp - got)
        spurious = sorted(got - exp)
        diff = []
        if missing:
            diff.append(f"missing={missing[:5]}")
        if spurious:
            diff.append(f"spurious={spurious[:5]}")
        if not diff:
            diff.append("ordering differs")
        return (
            f"{self.algorithm}: sigma={self.sigma} n={self.n} m={self.m} "
            f"case_seed={self.case_seed} kind={self.kind} {' '.join(diff)}"
        )


@dataclass
class DifferentialReport:
    cases_per_algorithm: dict[str, int] = field(default_factory=dict)
    mismatches: list[Mismatch] = field(default_factory=list)

    @property
    def total_cases(self) -> int:
        return sum(self.cases_per_algorithm.values())

    @property
    def ok(self) -> bool:
        return not self.mismatches


def _make_case(algo: AlgorithmDescriptor, case_seed: int):
    rng = _pcg64(case_seed)
    sigma = int(rng.choice(ALLOWED_SIGMAS))
    lo = algo.m_min
    hi = algo.m_max if algo.m_max is not None else DEFAULT_MAX_N
    hi = min(hi, DEFAULT_MAX_N)
    # log-uniform m exercises both ends of the applicability range
    m = int(round(2 ** rng.uniform(math.log2(lo), math.log2(hi))))
    m = max(lo, min(m, hi))
    n = int(rng.integers(m, DEFAULT_MAX_N + 1))
    text = rng.integers(0, sigma, size=n, dtype="uint8").tobytes()
    kind = _KINDS[int(rng.integers(0, 3))]
    if kind == "random":
        pattern = rng.integers(0, sigma, size=m, dtype="uint8").tobytes()
    else:
        i = int(rng.integers(0, n - m + 1))
        pattern = text[i : i + m]
        if kind == "mutated":
            j = int(rng.integers(0, m))
            b = bytearray(pattern)
            b[j] = (b[j] + 1 + int(rng.integers(0, max(sigma - 1, 1)))) % sigma
            pattern = bytes(b)
    return sigma, n, m, kind, pattern, text


def run_differential(cases: int, seed: int, algos=None) -> DifferentialReport:
    """Run at least `cases` randomized cases spread over the algorithms.

    Deterministic for a fixed seed.  Collects up to _STOP_AFTER mismatches
    before giving up.
    """
    if cases < 1:
        raise ValueError("cases must be >= 1")
    if algos is None:
        algos = REGISTRY
    if not algos:
        raise ValueError("need at least one algorithm")
    per_algo = -(-cases // len(algos))
    report = DifferentialReport()
    for algo in algos:
        ran = 0
        for i in range(per_algo):
            case_seed = derive_seed(seed, algo.id, i)
            sigma, n, m, kind, pattern, text = _make_case(algo, case_seed)
            expected = brute_force_search(pattern, text)
            got = algo.search(pattern, text)
            ran += 1
            if expected != got:
                report.mismatches.append(Mismatch(
                    algorithm=algo.id,
                    sigma=sigma,
                    n=n,
                    m=m,
                    case_seed=case_seed,
                    kind=kind,
                    expected=tuple(expected),
                    got=tuple(got),
                ))
                if len(report.mismatches) >= _STOP_AFTER:
                    report.cases_per_algorithm[algo.id] = ran
                    return report
        report.cases_per_algorithm[algo.id] = ran
    return report
