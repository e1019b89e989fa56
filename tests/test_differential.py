from dataclasses import replace

import pytest

from matchbench.comparison import compile_hor
from matchbench.differential import run_differential
from matchbench.registry import REGISTRY, get_algorithm


def test_small_run_is_clean_and_deterministic():
    report = run_differential(200, seed=5)
    assert report.ok
    assert report.total_cases >= 200
    assert set(report.cases_per_algorithm) == {a.id for a in REGISTRY}
    again = run_differential(200, seed=5)
    assert again.cases_per_algorithm == report.cases_per_algorithm


def test_restricting_algorithms_restricts_m():
    hash5 = get_algorithm("HASH5")
    report = run_differential(50, seed=6, algos=[hash5])
    assert report.ok
    assert report.cases_per_algorithm == {"HASH5": 50}


def _broken_horspool(p: bytes):
    # fault injection: shift table inflated by one, so occurrences can be
    # stepped over
    run = compile_hor(p)

    def bad(hay):
        out = run(hay)
        return out[1:] if len(out) > 1 else out

    return bad


def test_fault_injection_is_caught_with_reproducer():
    broken = replace(get_algorithm("HOR"), id="BROKEN-HOR", compile=_broken_horspool)
    report = run_differential(300, seed=7, algos=[broken])
    assert not report.ok
    mm = report.mismatches[0]
    assert mm.algorithm == "BROKEN-HOR"
    assert mm.sigma >= 2 and mm.n >= mm.m >= 1
    text = mm.describe()
    assert "case_seed=" in text and "missing=" in text


def test_broken_shift_table_variant():
    # a genuinely corrupted shift table (every shift one too large)
    def bad_compile(p: bytes):
        from matchbench.comparison import _horspool_table

        m = len(p)
        tbl = [s + 1 for s in _horspool_table(p)]
        last = p[m - 1]

        def run(hay):
            n = len(hay)
            out = []
            pos = 0
            while pos <= n - m:
                c = hay[pos + m - 1]
                if c == last and hay.startswith(p, pos):
                    out.append(pos)
                pos += tbl[c]
            return out

        return run

    broken = replace(get_algorithm("HOR"), id="BROKEN-SHIFT", compile=bad_compile)
    report = run_differential(400, seed=8, algos=[broken])
    assert not report.ok
