"""Shared fixtures and fuzz helpers.

naive_scan is the independent second oracle: it uses slice equality, a
completely different mechanism from the char-by-char brute-force searcher
it cross-checks.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest

from matchbench.core import brute_force_search
from matchbench.registry import get_algorithm


def child_env():
    """The environment for a child interpreter that imports this checkout's matchbench."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}


def naive_scan(p: bytes, t: bytes) -> list[int]:
    m = len(p)
    return [i for i in range(len(t) - m + 1) if t[i : i + m] == p]


def find_all(p: bytes, t: bytes) -> list[int]:
    # overlapping occurrences via bytes.find
    out, i = [], t.find(p)
    while i != -1:
        out.append(i)
        i = t.find(p, i + 1)
    return out


def rand_bytes(rng: np.random.Generator, sigma: int, n: int) -> bytes:
    return rng.integers(0, sigma, size=n, dtype=np.uint8).tobytes()


def fuzz_cases(seed: int, count: int, m_lo: int, m_hi: int, *,
               sigmas=(1, 2, 4, 8, 32, 64, 128, 256), n_max: int = 512,
               extract_prob: float = 0.6):
    """Yield (pattern, text) byte pairs covering planted occurrences,
    random needles and near-miss mutations."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        sigma = int(rng.choice(sigmas))
        m = int(rng.integers(m_lo, m_hi + 1))
        n = int(rng.integers(m, max(n_max, m) + 1))
        t = rand_bytes(rng, sigma, n)
        roll = rng.random()
        if roll < extract_prob:
            i = int(rng.integers(0, n - m + 1))
            p = t[i : i + m]
        elif roll < extract_prob + 0.2 or sigma == 1:
            p = rand_bytes(rng, sigma, m)
        else:
            i = int(rng.integers(0, n - m + 1))
            b = bytearray(t[i : i + m])
            j = int(rng.integers(0, m))
            b[j] = (b[j] + 1) % sigma
            p = bytes(b)
        yield p, t


class Recorder:
    """Haystack that records every index read, in order."""

    def __init__(self, data):
        self.data = data
        self.indices = []

    def __len__(self):
        return len(self.data)

    def __getitem__(self, i):
        self.indices.append(i)
        return self.data[i]

    def startswith(self, p, i):
        # a window check reads left to right through self[i + k]: the read
        # order InstrumentedText.startswith counts
        for k in range(len(p)):
            if self[i + k] != p[k]:
                return False
        return True


def searcher(algo_id: str):
    """The registry's search entry point for one algorithm."""
    return get_algorithm(algo_id).search


def search_id(value):
    # parametrize ids: "SBNDM-BMH" prints as "search_sbndm_bmh", the id
    # these tests have always had, so results compare across history
    if isinstance(value, str):
        return "search_" + value.lower().replace("-", "_")
    return None


def assert_matches_oracle(search_fn, cases) -> int:
    ran = 0
    for p, t in cases:
        expected = brute_force_search(p, t)
        got = search_fn(p, t)
        assert got == expected, (
            f"mismatch for m={len(p)} n={len(t)}: expected {expected[:8]}..., got {got[:8]}..."
        )
        ran += 1
    return ran


@pytest.fixture(scope="session")
def rand64_1mib():
    from matchbench.bench import generate_rand_text

    return generate_rand_text(64, 1 << 20, seed=64)
