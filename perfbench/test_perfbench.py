"""Self-checks of the benchmark: exact counts repeat for one seed, inputs
change with the seed, self times add up, and the result line keeps its
contract.  Run from the repository root with

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, make  # noqa: E402


def deterministic(name: str, seed: int, directory: Path) -> dict:
    wl = make(name, seed)
    directory.mkdir()
    wl.write_inputs(directory)
    wl.load(Tracer(False))
    counts = wl.exact_counts()
    del counts["scan_ns"]
    return {"inputs": wl.inputs_digest(), "occurrences": wl.occurrences_digest(),
            "picks": wl.picks(), "reference_ok": wl.reference_ok, **counts}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_exact_counts_repeat_for_one_seed(name, tmp_path):
    first = deterministic(name, 11, tmp_path / "a")
    second = deterministic(name, 11, tmp_path / "b")
    assert first == second
    assert first["reference_ok"]
    assert first["reads_total"] > 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_another_seed_gives_other_inputs(name):
    assert make(name, 11).inputs_digest() != make(name, 12).inputs_digest()


def test_self_time_subtracts_child_spans():
    tr = Tracer(True)

    def child():
        time.sleep(0.02)

    def parent():
        time.sleep(0.01)
        tr.call("child", child)
        tr.call("child", child)

    tr.call("parent", parent)
    total, count = tr.self_times()
    assert count == {"parent": 1, "child": 2}
    assert 0.04 <= total["child"] / 1e9 < 0.06
    assert 0.01 <= total["parent"] / 1e9 < 0.02
    name, start, end, parent_idx, _ = tr.spans[0]
    assert parent_idx == -1 and tr.spans[1][3] == 0
    assert end - start == total["parent"] + total["child"]


def test_untraced_calls_record_nothing():
    tr = Tracer(False)
    assert tr.call("x", lambda a: a + 1, 1) == 2
    assert tr.spans == []


def run_bench(cwd: Path, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "small_texts", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_has_every_declared_metric(trace, section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    done = run_bench(ROOT, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec[section]}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = run_bench(tmp_path, 0)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
