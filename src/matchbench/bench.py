"""Benchmark harness: text provisioning, pattern sampling and dual-mode
measurement.

Two metrics are supported.  "time" measures wall-clock milliseconds of the
search phase only (preprocessing and pattern setup stay outside the timed
region, and every pattern gets one untimed warm-up search first).  "reads"
counts single-character accesses through InstrumentedText, which is
deterministic for a fixed seed and therefore bit-reproducible.
"""

from __future__ import annotations

import hashlib
import statistics
import time
from dataclasses import dataclass

# the corpus loader and the standard alphabets live in core, which `search`
# loads without this module; they stay importable from here
from .core import ALLOWED_SIGMAS, CORPUS_EXPECTATIONS, InstrumentedText, Pattern, Text, load_corpus
from .registry import REGISTRY, AlgorithmDescriptor

#: Generator name pinned into benchmark output metadata for reproducibility.
PRNG_NAME = "numpy-pcg64"

DEFAULT_LENGTHS = (2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)

METRICS = ("time", "reads")


@dataclass(frozen=True)
class BenchConfig:
    lengths: tuple[int, ...] = DEFAULT_LENGTHS
    patterns_per_length: int = 400
    seed: int = 1
    metric: str = "time"

    def __post_init__(self):
        object.__setattr__(self, "lengths", tuple(self.lengths))
        if any(b <= a for a, b in zip(self.lengths, self.lengths[1:])):
            raise ValueError("lengths must be strictly increasing")
        if not self.lengths:
            raise ValueError("lengths must be non-empty")
        if self.lengths[0] < 1:
            raise ValueError("pattern lengths must be >= 1")
        if self.patterns_per_length < 1:
            raise ValueError("patterns_per_length must be >= 1")
        if self.metric not in METRICS:
            raise ValueError(f"metric must be one of {METRICS}")


@dataclass(frozen=True)
class Measurement:
    """One benchmark cell: mean over patterns_per_length searches."""

    text_id: str
    sigma: int
    family: str
    algorithm: str
    m: int
    runs: int
    mean_value: float  # milliseconds (time) or character reads (reads)
    stddev: float
    mean_occurrences: float
    metric: str


def derive_seed(*parts) -> int:
    """Stable 64-bit sub-seed from the root seed and cell identity."""
    h = hashlib.blake2b("|".join(str(p) for p in parts).encode(), digest_size=8)
    return int.from_bytes(h.digest(), "big")


def _pcg64(seed: int):
    """numpy's PCG64 generator for one seed.  numpy is imported here, not at
    module level, so only the paths that draw random numbers load it."""
    import numpy as np

    return np.random.Generator(np.random.PCG64(seed))


def generate_rand_text(sigma: int, size: int, seed: int, allow_any_sigma: bool = False) -> Text:
    """Uniform i.i.d. random text over byte values 0..sigma-1.

    Deterministic for a fixed (sigma, size, seed).  sigma is restricted to
    the standard power-of-two set unless allow_any_sigma is set.
    """
    if not allow_any_sigma and sigma not in ALLOWED_SIGMAS:
        raise ValueError(f"sigma must be one of {ALLOWED_SIGMAS} (or pass allow_any_sigma=True)")
    if not 1 <= sigma <= 256:
        raise ValueError(f"sigma must be in [1, 256], got {sigma}")
    if size < 1:
        raise ValueError("size must be >= 1")
    data = _pcg64(seed).integers(0, sigma, size=size, dtype="uint8").tobytes()
    return Text(data, f"rand{sigma}")


def sample_positions(text: Text, m: int, count: int, seed: int) -> list[int]:
    """Uniform extraction positions in [0, n-m], deterministic per seed."""
    n = len(text)
    if m > n:
        raise ValueError(f"cannot sample length-{m} patterns from a length-{n} text")
    if count < 1:
        raise ValueError("count must be >= 1")
    return _pcg64(seed).integers(0, n - m + 1, size=count).tolist()


def sample_patterns(text: Text, m: int, count: int, seed: int) -> list[Pattern]:
    """Patterns extracted from the text at sample_positions(...) — each one
    therefore occurs in the text at least once."""
    return [Pattern(text.data[i : i + m]) for i in sample_positions(text, m, count, seed)]


def _measure_cell(cfg: BenchConfig, text: Text, sigma: int, algo: AlgorithmDescriptor,
                  m: int, patterns: list[Pattern]) -> Measurement:
    values = []
    occurrences = 0
    if cfg.metric == "time":
        hay = text.data
        for pat in patterns:
            run = algo.compile(pat.data)
            run(hay)
            t0 = time.perf_counter_ns()
            res = run(hay)
            t1 = time.perf_counter_ns()
            values.append((t1 - t0) / 1e6)
            occurrences += len(res)
    else:
        it = InstrumentedText(text)
        for pat in patterns:
            run = algo.compile(pat.data)
            before = it.reads
            res = run(it)
            values.append(float(it.reads - before))
            occurrences += len(res)
    return Measurement(
        text_id=text.id,
        sigma=sigma,
        family=algo.family,
        algorithm=algo.id,
        m=m,
        runs=len(patterns),
        mean_value=statistics.fmean(values),
        stddev=statistics.pstdev(values),
        mean_occurrences=occurrences / len(patterns),
        metric=cfg.metric,
    )


def run_benchmark(cfg: BenchConfig, texts, algos=None) -> list[Measurement]:
    """One Measurement per (text, algorithm, m) cell where the algorithm is
    applicable at m and m fits the text; other cells are omitted.

    The same extracted pattern set is shared by every algorithm of a
    (text, m) cell.
    """
    if algos is None:
        algos = REGISTRY
    if not texts or not algos:
        raise ValueError("need at least one text and one algorithm")

    out = []
    for text in texts:
        sigma = text.alphabet_size()
        # per text, not per text id: two texts may share an id
        patterns: dict[int, list[Pattern]] = {}
        for algo in algos:
            for m in cfg.lengths:
                if m > len(text) or not algo.applicable(m):
                    continue
                if m not in patterns:
                    patterns[m] = sample_patterns(
                        text, m, cfg.patterns_per_length, derive_seed(cfg.seed, text.id, m)
                    )
                out.append(_measure_cell(cfg, text, sigma, algo, m, patterns[m]))
    return out
