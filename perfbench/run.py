#!/usr/bin/env python3
"""matchbench benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload search_rand --seed 1 --seconds 20 --trace 0

Run it from the repository root; the program under test is imported from
./src.  The last line of stdout is {"correct", "attempted", "failed",
"metrics"}: end-to-end metrics with --trace 0, per-layer metrics with
--trace 1.  The line before it holds run metadata, the sample counts and
the deterministic counts.  perfbench/README.md explains the workloads,
the metrics and the trace file.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="measuring time of the run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "matchbench" / "__init__.py").is_file():
        print(f"error: no program under test: {src / 'matchbench'} is missing "
              "(run from the repository root)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import matchbench

    if Path(matchbench.__file__).resolve().parent != (src / "matchbench").resolve():
        print(f"error: imported matchbench from {matchbench.__file__}, not from {src}", file=sys.stderr)
        return 2
    from harness import run_workload

    return run_workload(args, root, src)


if __name__ == "__main__":
    sys.exit(main())
