"""Measuring one workload: set-up, the closed loop, statistics, traced
runs and the result lines.  Imported by run.py once ./src is on the path.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import shlex
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from importlib import metadata
from pathlib import Path
from time import perf_counter, perf_counter_ns

from tracing import Tracer
from workloads import FAMILIES, CliCold, make, record_child_timings

SETUP_REPEATS = 6
QUERY_QUANTILE = 0.9
WARMUP_S = 1.0
CHILD_TIMEOUT_S = 120
OUT_DIR = ".perfbench_out"

# set-up as a user pays it: a fresh interpreter imports matchbench and
# loads the workload's texts through the program
SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
import matchbench
from matchbench.bench import load_corpus
texts = [load_corpus(path) for path in sys.argv[1:]]
print(time.perf_counter() - t0)
"""

END_TO_END = {
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "throughput_mib_s": "MiB/s",
    "cells_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}

PER_LAYER = {
    "cli.interpreter_ms": "ms",
    "cli.import_ms": "ms",
    "cli.import_numpy_ms": "ms",
    "cli.run_ms": "ms",
    "bench.load_corpus_ms": "ms",
    "core.alphabet_size_ms": "ms",
    "registry.select_applicable_us": "us",
    "comparison.compile_s": "s",
    "automata.compile_s": "s",
    "bitparallel.compile_s": "s",
    "comparison.scan_s": "s",
    "automata.scan_s": "s",
    "bitparallel.scan_s": "s",
    "compile.share": "ratio",
    "core.reads_per_char": "reads/char",
    "core.reads_per_char.comparison": "reads/char",
    "core.reads_per_char.automata": "reads/char",
    "core.reads_per_char.bitparallel": "reads/char",
    "core.reads_total": "count",
    "core.reads_per_s": "1/s",
    "bench.run_benchmark_s": "s",
    "bench.sample_patterns_ms": "ms",
    "report.render_table_ms": "ms",
    "report.parse_ms": "ms",
    "ref.find_s": "s",
    "ref.scan_over_find": "ratio",
    "trace.overhead_ms": "ms",
    "trace.overhead_share": "ratio",
}


class Tally:
    """Queries attempted and failed, warm-up included."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0


def quantile(values, f: float) -> float:
    """Quantile ``f`` (a multiple of 0.05) of ``values``, interpolated."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=20, method="inclusive")[round(f * 20) - 1]


class Samples:
    """Latencies of one closed-loop client, grouped by query.

    Each distinct query gets one latency: the QUERY_QUANTILE of its
    samples.  Every query then weighs the same however many times it ran,
    so a pass cut short by the deadline does not tilt the mix.  The upper
    quantile tracks the machine's usual speed: on a shared host the
    excursions are mostly phases of tens of seconds in which the machine
    runs faster, and a median or minimum follows them (see README)."""

    def __init__(self):
        self.by_query: dict[int, list[int]] = defaultdict(list)
        self.passes = 0

    def __len__(self) -> int:
        return sum(map(len, self.by_query.values()))

    def per_query_ns(self) -> dict[int, float]:
        return {qid: quantile(v, QUERY_QUANTILE) for qid, v in self.by_query.items()}

    def quantile_ms(self, f: float) -> float:
        """Quantile ``f`` (0.5 or 0.9) over the distinct queries' latencies."""
        return quantile(sorted(self.per_query_ns().values()), f) / 1e6

    def rate(self, work) -> float:
        """Work per second: the sum of work(qid) over the distinct queries
        divided by the sum of their latencies."""
        latencies = self.per_query_ns()
        return sum(work(qid) for qid in latencies) / (sum(latencies.values()) / 1e9)


def run_query(wl, q, tr, tally: Tally) -> int:
    """One query, timed; its output is checked outside the timed region."""
    tr.query_id = q.qid
    t0 = perf_counter_ns()
    try:
        out = tr.call("query", wl.run, q, tr)
        ok = True
    except Exception:
        ok = False
        if tally.failed == 0:
            traceback.print_exc()
    elapsed = perf_counter_ns() - t0
    ok = ok and wl.check(q, out)
    if not ok and tally.failed == 0:
        print(f"query {q.qid} ({q.text}, {q.algo}, m={q.m}) gave a wrong result", file=sys.stderr)
    tally.attempted += 1
    tally.failed += not ok
    return elapsed


def warm_up(wl, tr, tally: Tally) -> None:
    """Untimed queries until WARMUP_S has passed or one pass is done."""
    start = perf_counter()
    for q in wl.queries:
        run_query(wl, q, tr, tally)
        if perf_counter() - start > WARMUP_S:
            break


def measure(wl, tr, seconds: float, tally: Tally) -> Samples:
    """Closed loop, one client: passes over the (shuffled) query list until
    ``seconds`` have passed, but at least one whole pass."""
    res = Samples()
    deadline = perf_counter() + seconds
    while True:
        for q in wl.queries:
            res.by_query[q.qid].append(run_query(wl, q, tr, tally))
            if tr.enabled and wl.in_process:
                tr.call("ref.find", wl.reference, q)
            if res.passes and perf_counter() > deadline:
                return res
        res.passes += 1
        if perf_counter() > deadline:
            return res


def run_child(argv, env) -> subprocess.CompletedProcess:
    return subprocess.run(argv, env=env, capture_output=True, text=True, check=True,
                          stdin=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S)


def measure_setup(paths, src: Path, tr, repeats: int, times: list[float]) -> None:
    """Append the set-up seconds of ``repeats`` fresh interpreters to
    ``times``.  Traced runs add ``-X importtime`` and time bare interpreter
    starts too."""
    env = dict(os.environ, PYTHONPATH=str(src))
    argv = [sys.executable, *(["-X", "importtime"] if tr.enabled else []), "-c", SETUP_CODE, *map(str, paths)]
    for _ in range(repeats):
        done = run_child(argv, env)
        times.append(float(done.stdout.split()[-1]))
        record_child_timings(tr, done.stderr)
        if tr.enabled:
            t0 = perf_counter()
            run_child([sys.executable, "-c", "pass"], env)
            tr.note("cli.interpreter_ms", (perf_counter() - t0) * 1e3)


def run_metadata(root: Path, args, wl) -> dict:
    sha = None
    if (root / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
                                 timeout=30).stdout.strip() or None
        except OSError:
            pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "timer": "perf_counter",
        "timer_resolution_s": time.get_clock_info("perf_counter").resolution,
        "git_sha": sha,
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cli_cold_invocation": shlex.join(CliCold.argv_template()),
        "started_unix_s": time.time(),
    }


def end_to_end(wl, res: Samples, setup: list[float]) -> dict:
    if wl.in_process:
        rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    else:
        rss_mib = statistics.median(wl.child_rss_kib) / 1024
    queries = {q.qid: q for q in wl.queries}
    return {
        "latency_p50_ms": res.quantile_ms(0.5),
        "latency_p90_ms": res.quantile_ms(0.9),
        "throughput_mib_s": res.rate(lambda qid: wl.nbytes(queries[qid])) / 2**20,
        "cells_per_s": res.rate(lambda qid: wl.cells(queries[qid])),
        "setup_s": statistics.median(setup),
        "peak_rss_mib": rss_mib,
    }


def per_layer(wl, tr, layer_tr, layer_passes: int, plain: Samples, traced: Samples, counts: dict) -> dict:
    """Self times from the spans, exact counts from the replay, and the
    tracing overhead (traced minus untraced end-to-end)."""
    total, count = layer_tr.self_times()
    load_total, load_count = tr.self_times()

    def per_pass_s(name):
        return total.get(name, 0) / 1e9 / layer_passes

    def mean(name, scale, totals=total, counts_=count):
        return totals[name] / counts_[name] / scale if counts_.get(name) else 0.0

    def median_note(name):
        values = tr.notes.get(name)
        return statistics.median(values) if values else 0.0

    compile_s = sum(per_pass_s(f + ".compile") for f in FAMILIES)
    scan_s = sum(per_pass_s(f + ".scan") for f in FAMILIES)
    find_s = per_pass_s("ref.find")
    out = {
        "cli.interpreter_ms": median_note("cli.interpreter_ms"),
        "cli.import_ms": median_note("cli.import_ms"),
        "cli.import_numpy_ms": median_note("cli.import_numpy_ms"),
        "cli.run_ms": median_note("cli.run_ms"),
        "bench.load_corpus_ms": mean("bench.load_corpus", 1e6, load_total, load_count),
        "core.alphabet_size_ms": mean("core.alphabet_size", 1e6),
        "registry.select_applicable_us": mean("registry.select_applicable", 1e3),
        "compile.share": compile_s / (compile_s + scan_s) if compile_s + scan_s else 0.0,
        "core.reads_per_char": counts["reads_per_char"],
        "core.reads_total": counts["reads_total"],
        # reads over the time of the instrumented scans that made them; bench_reads
        # scans through InstrumentedText in its passes already
        "core.reads_per_s": counts["reads_total"] / (counts["scan_ns"] / 1e9 if counts["scan_ns"] else scan_s),
        "bench.run_benchmark_s": per_pass_s("bench.run_benchmark"),
        "bench.sample_patterns_ms": mean("bench.sample_patterns", 1e6, load_total, load_count),
        "report.render_table_ms": mean("report.render_table", 1e6),
        "report.parse_ms": mean("report.parse", 1e6),
        "ref.find_s": find_s,
        "ref.scan_over_find": scan_s / find_s if find_s else 0.0,
        "trace.overhead_ms": traced.quantile_ms(0.5) - plain.quantile_ms(0.5),
        "trace.overhead_share": traced.quantile_ms(0.5) / plain.quantile_ms(0.5) - 1,
    }
    for f in FAMILIES:
        out[f + ".compile_s"] = per_pass_s(f + ".compile")
        out[f + ".scan_s"] = per_pass_s(f + ".scan")
        out["core.reads_per_char." + f] = counts["reads_per_char_by_family"][f]
    return {name: out[name] for name in PER_LAYER}


def run_workload(args, root: Path, src: Path) -> int:
    """One run as the command line asks; prints the two result lines."""
    wl = make(args.workload, args.seed)
    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    tr = Tracer(bool(args.trace))
    plain_tr = Tracer(False)
    tally = Tally()
    inputs = Path(tempfile.mkdtemp(prefix=f"inputs-{wl.name}-", dir=out_dir))
    try:
        paths = wl.write_inputs(inputs)
        setup: list[float] = []
        # the first set-up fills the bytecode caches and is not counted
        measure_setup(paths, src, plain_tr, 1, [])
        # half the set-ups before the measurement and half after, so that
        # the median spans the run
        measure_setup(paths, src, tr, SETUP_REPEATS // 2, setup)
        wl.load(tr)
        deterministic = {
            "workload": wl.name,
            "seed": args.seed,
            "queries_per_pass": len(wl.queries),
            "inputs_sha256": wl.inputs_digest(),
            "occurrences_sha256": wl.occurrences_digest(),
            "reference_matches_brute_force": wl.reference_ok,
            "picks": wl.picks(),
        }
        gc.collect()
        gc.freeze()
        warm_up(wl, plain_tr, tally)
        if not args.trace:
            samples = measure(wl, plain_tr, args.seconds, tally)
            measure_setup(paths, src, tr, SETUP_REPEATS - SETUP_REPEATS // 2, setup)
            metrics, units = end_to_end(wl, samples, setup), END_TO_END
        else:
            plain = measure(wl, plain_tr, args.seconds / 2, tally)
            traced = measure(wl, tr, args.seconds / 2, tally)
            layer_tr, layer_passes = tr, traced.passes
            if not wl.in_process:
                layer_tr, layer_passes = Tracer(True), 1
                wl.layer_replay(layer_tr)
            measure_setup(paths, src, tr, SETUP_REPEATS - SETUP_REPEATS // 2, setup)
            counts = wl.exact_counts()
            deterministic.update({k: v for k, v in counts.items() if k != "scan_ns"})
            metrics, units = per_layer(wl, tr, layer_tr, layer_passes, plain, traced, counts), PER_LAYER
            samples = traced
            tracers = {"run": tr} if layer_tr is tr else {"run": tr, "replay": layer_tr}
            with open(out_dir / f"trace-{wl.name}-seed{args.seed}.json", "w") as fh:
                json.dump({k: t.dump() for k, t in tracers.items()}, fh, separators=(",", ":"))
    finally:
        shutil.rmtree(inputs, ignore_errors=True)

    p90_ns = samples.quantile_ms(0.9) * 1e6
    info = {
        "meta": run_metadata(root, args, wl),
        "samples": {"queries_per_pass": len(wl.queries), "passes": samples.passes, "samples": len(samples),
                    "beyond_p90": sum(x > p90_ns for v in samples.by_query.values() for x in v),
                    "error_rate": tally.failed / tally.attempted, "setup_s": setup},
        "deterministic": deterministic,
    }
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": tally.failed == 0 and wl.reference_ok,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0
