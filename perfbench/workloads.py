"""The benchmark's workloads.

Each workload makes its inputs from the seed (the program only ever sees
the resulting bytes), lists the queries one pass issues, runs a query
through the program's public entry points, and checks the output against
a reference.  Entry points used: ``core.Text.alphabet_size``,
``registry.select_applicable`` / ``get_algorithm`` /
``applicable_algorithms``, ``AlgorithmDescriptor.compile`` and the
``run(hay)`` it returns, ``core.InstrumentedText``, ``bench.load_corpus``,
``bench.sample_patterns``, ``bench.run_benchmark``,
``report.render_table`` / ``parse_measurements_csv`` and the CLI's
``main`` in a fresh interpreter.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import random
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter_ns

import matchbench
from matchbench import bench, core, registry, report
from tracing import Tracer

KIB = 1024
MIB = 1024 * KIB
FAMILIES = ("comparison", "automata", "bitparallel")


def layer_of(algo) -> str:
    """Layer name of an algorithm's family: the module that implements it."""
    return algo.family.replace("-", "")


def find_all(hay: bytes, p: bytes) -> list[int]:
    """Every start position of p in hay, overlaps included (native bytes.find)."""
    out = []
    i = hay.find(p)
    while i >= 0:
        out.append(i)
        i = hay.find(p, i + 1)
    return out


def rand_text(rng: random.Random, sigma: int, n: int) -> bytes:
    """Uniform i.i.d. bytes over 0..sigma-1 (sigma a power of two)."""
    return rng.randbytes(n).translate(bytes(b % sigma for b in range(256)))


def auto_search(tr, text, hay, p: bytes):
    """``search --algo auto``: alphabet estimate, map lookup, compile, scan."""
    sigma = tr.call("core.alphabet_size", text.alphabet_size)
    algo = tr.call("registry.select_applicable", registry.select_applicable, max(sigma, 1), len(p))
    return algo, fixed_search(tr, algo, hay, p)


def fixed_search(tr, algo, hay, p: bytes) -> list[int]:
    layer = layer_of(algo)
    run = tr.call(layer + ".compile", algo.compile, p)
    return tr.call(layer + ".scan", run, hay)


@dataclass
class Query:
    qid: int
    text: str  # text id, also the input file's stem
    pattern: bytes
    algo: str  # registry id or "auto"
    m: int
    expected: object = None  # occurrence positions, or a total count for bench_reads
    replay: bool = True  # part of the exact-count replay


class Workload:
    """Base: inputs as {text id: bytes}, one pass as a list of queries."""

    name = ""
    in_process = True  # False: queries run in child processes

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(f"{self.name}/{seed}")
        self.texts: dict[str, bytes] = {}
        self.queries: list[Query] = []
        self.paths: dict[str, Path] = {}
        self.loaded: dict[str, core.Text] = {}
        self.reference_ok = True
        self.build()
        # a pass cut short by the deadline is then a random subset of the mix
        self.rng.shuffle(self.queries)

    def build(self) -> None:
        raise NotImplementedError

    def add(self, text: str, pattern: bytes, algo: str = "auto", replay: bool = True) -> None:
        expected = find_all(self.texts[text], pattern)
        self.queries.append(Query(len(self.queries), text, pattern, algo, len(pattern), expected, replay))

    def write_inputs(self, directory: Path) -> list[Path]:
        for tid, data in self.texts.items():
            path = directory / f"{tid}.bin"
            path.write_bytes(data)
            self.paths[tid] = path
        return list(self.paths.values())

    def load(self, tr) -> None:
        """Set-up through the program: every text goes through load_corpus."""
        for tid, path in self.paths.items():
            self.loaded[tid] = tr.call("bench.load_corpus", bench.load_corpus, path)
            if self.loaded[tid].data != self.texts[tid]:
                raise RuntimeError(f"load_corpus changed the bytes of {tid}")

    def run(self, q: Query, tr):
        text = self.loaded[q.text]
        if q.algo == "auto":
            return auto_search(tr, text, text.data, q.pattern)[1]
        return fixed_search(tr, registry.get_algorithm(q.algo), text.data, q.pattern)

    def check(self, q: Query, out) -> bool:
        return out == q.expected

    def cells(self, q: Query) -> int:
        """Units of work in one query; cells_per_s counts these."""
        return 1

    def nbytes(self, q: Query) -> int:
        return len(self.texts[q.text])

    def reference(self, q: Query):
        return find_all(self.texts[q.text], q.pattern)

    def layer_replay(self, tr) -> None:
        """Traced runs: in-process spans for layers a pass cannot show."""

    def inputs_digest(self) -> str:
        h = hashlib.sha256()
        for tid, data in self.texts.items():
            h.update(tid.encode() + b"\0" + data)
        for q in self.queries:
            h.update(f"{q.text}|{q.algo}|{q.m}|".encode() + q.pattern)
        return h.hexdigest()

    def occurrences_digest(self) -> str:
        h = hashlib.sha256()
        for q in self.queries:
            h.update(repr(q.expected).encode())
        return h.hexdigest()

    def picks(self) -> dict[str, str]:
        """The algorithm ``auto`` picks per (text, m) cell."""
        out = {}
        for q in self.queries:
            if q.algo == "auto":
                sigma = max(self.loaded[q.text].alphabet_size(), 1)
                out[f"{q.text}/m={q.m}"] = registry.select_applicable(sigma, q.m).id
        return out

    def exact_counts(self) -> dict:
        """Character reads of the replay queries through InstrumentedText.

        Returns the deterministic counts and, under "scan_ns", the time
        those instrumented scans took.
        """
        reads = dict.fromkeys(FAMILIES, 0)
        chars = dict.fromkeys(FAMILIES, 0)
        scan_ns = 0
        for q in self.queries:
            if not q.replay:
                continue
            text = self.loaded[q.text]
            if q.algo == "auto":
                algo = registry.select_applicable(max(text.alphabet_size(), 1), q.m)
            else:
                algo = registry.get_algorithm(q.algo)
            run = algo.compile(q.pattern)
            hay = core.InstrumentedText(text)
            t0 = perf_counter_ns()
            res = run(hay)
            scan_ns += perf_counter_ns() - t0
            if res != q.expected:
                raise RuntimeError(f"{algo.id} gave wrong occurrences on query {q.qid}")
            reads[layer_of(algo)] += hay.reads
            chars[layer_of(algo)] += len(text)
        return self._counts(reads, chars, scan_ns)

    def _counts(self, reads, chars, scan_ns) -> dict:
        total_chars = sum(chars.values())
        return {
            "reads_total": sum(reads.values()),
            "chars_total": total_chars,
            "reads_per_char": sum(reads.values()) / total_chars,
            "reads_per_char_by_family": {f: (reads[f] / chars[f] if chars[f] else 0.0) for f in FAMILIES},
            "reads_by_family": reads,
            "scan_ns": scan_ns,
        }


class SearchRand(Workload):
    """``auto`` search on 1 MiB uniform random texts: the scan loops and the
    alphabet estimate dominate, so scan and alphabet changes show here."""

    name = "search_rand"
    SIGMAS = (4, 64, 256)
    LENGTHS = (4, 16, 64, 1024)
    PER_CELL = 8
    SIZE = MIB

    def build(self):
        for sigma in self.SIGMAS:
            tid = f"rand{sigma}"
            data = self.texts[tid] = rand_text(self.rng, sigma, self.SIZE)
            for m in self.LENGTHS:
                for k in range(self.PER_CELL):
                    pos = self.rng.randrange(len(data) - m + 1)
                    self.add(tid, data[pos:pos + m], replay=k == 0)


class SearchPeriodic(Workload):
    """``auto`` search on 16 KiB all-equal and (ab)^k texts with exact and
    near-miss patterns: window verification dominates, and auto's worst
    case shows here."""

    name = "search_periodic"
    LENGTHS = (4, 16, 64, 512)
    SIZE = 16 * KIB

    def build(self):
        zero, one = self.rng.sample(range(256), 2)
        a, b = self.rng.sample(range(256), 2)
        self.texts["zeros"] = bytes([zero]) * self.SIZE
        self.texts["abab"] = bytes([a, b]) * (self.SIZE // 2)
        for m in self.LENGTHS:
            self.add("zeros", bytes([zero]) * m)
            self.add("zeros", bytes([zero]) * (m - 1) + bytes([one]))
            prefix = self.texts["abab"][:m]
            self.add("abab", prefix)
            self.add("abab", prefix[:-1] + bytes([a if prefix[-1] == b else b]))


class SmallTexts(Workload):
    """Every registry algorithm, and ``auto``, over its applicability range on
    random texts of at most 4 KiB: preprocessing (compile) has its largest
    share here."""

    name = "small_texts"
    SIGMAS = (2, 4, 16, 64, 256)
    SIZES = (128, 256, 512, 1024, 2048, 4096)
    LENGTHS = (1, 2, 3, 4, 8, 16, 31, 32, 33, 63, 64, 65, 128, 256, 512, 1024)

    def build(self):
        # the seed changes the bytes and the pattern positions, never the mix
        for sigma in self.SIGMAS:
            for n in self.SIZES:
                tid = f"small_s{sigma}_n{n}"
                data = self.texts[tid] = rand_text(self.rng, sigma, n)
                for m in self.LENGTHS:
                    if m > n:
                        continue
                    pos = self.rng.randrange(n - m + 1)
                    pattern = data[pos:pos + m]
                    if core.brute_force_search(pattern, data) != find_all(data, pattern):
                        self.reference_ok = False
                    for algo in registry.applicable_algorithms(m):
                        self.add(tid, pattern, algo.id)
                    self.add(tid, pattern, "auto")


class CliCold(Workload):
    """A fresh interpreter runs ``matchbench search --algo auto`` on 64 KiB
    files: interpreter start and imports dominate."""

    name = "cli_cold"
    in_process = False
    SIGMAS = (4, 64, 256)
    LENGTHS = (4, 16, 64, 1024)
    SIZE = 64 * KIB
    CODE = "from matchbench.cli import entrypoint\nentrypoint()"
    # traced: the same call, with the import and main timed inside the child
    TRACED_CODE = (
        "import sys, time\n"
        "t0 = time.perf_counter()\n"
        "from matchbench.cli import main\n"
        "t1 = time.perf_counter()\n"
        "rc = main()\n"
        "t2 = time.perf_counter()\n"
        "sys.stdout.flush()\n"
        "print('perfbench-cli', (t1 - t0) * 1e3, (t2 - t1) * 1e3, file=sys.stderr)\n"
        "sys.exit(rc)\n"
    )

    def build(self):
        self.src = Path(matchbench.__file__).resolve().parent.parent
        self.child_rss_kib: list[int] = []
        for sigma in self.SIGMAS:
            tid = f"cli{sigma}"
            data = self.texts[tid] = rand_text(self.rng, sigma, self.SIZE)
            for m in self.LENGTHS:
                pos = self.rng.randrange(len(data) - m + 1)
                self.add(tid, data[pos:pos + m])
            # almost surely absent, so the exit code 1 path is exercised too
            self.add(tid, rand_text(self.rng, sigma, 32))

    @staticmethod
    def escape(p: bytes) -> str:
        return "".join(f"\\x{c:02x}" for c in p)

    @classmethod
    def argv_template(cls, traced: bool = False, pattern: str = "<\\xNN...>", path: str = "<file>") -> list[str]:
        code = ["-X", "importtime", "-c", cls.TRACED_CODE] if traced else ["-c", cls.CODE]
        return [sys.executable, *code, "search", "--algo", "auto", "--pattern", pattern, "--text", path]

    def argv(self, q: Query, traced: bool) -> list[str]:
        return self.argv_template(traced, self.escape(q.pattern), str(self.paths[q.text]))

    def run(self, q: Query, tr):
        env = dict(os.environ, PYTHONPATH=str(self.src))
        with tempfile.TemporaryFile(dir=self.paths[q.text].parent) as err:
            proc = subprocess.Popen(self.argv(q, tr.enabled), stdout=subprocess.PIPE, stderr=err,
                                    stdin=subprocess.DEVNULL, env=env)
            with proc.stdout:
                out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            self.child_rss_kib.append(usage.ru_maxrss)
            if tr.enabled:
                err.seek(0)
                record_child_timings(tr, err.read().decode(errors="replace"))
        return proc.returncode, out

    def check(self, q: Query, out) -> bool:
        rc, stdout = out
        try:
            positions = [int(line) for line in stdout.split()]
        except ValueError:
            return False
        return rc == (0 if q.expected else 1) and positions == q.expected

    def layer_replay(self, tr) -> None:
        """The same auto searches in-process, so the layers inside the
        child (alphabet, selection, compile, scan) get spans too."""
        for q in self.queries:
            tr.query_id = q.qid
            text = self.loaded[q.text]
            tr.call("query", auto_search, tr, text, text.data, q.pattern)
            tr.call("ref.find", self.reference, q)


def record_child_timings(tr, stderr: str) -> None:
    """Notes from a child run with ``-X importtime``: cumulative import
    time of matchbench and numpy, and the timings TRACED_CODE prints."""
    for line in stderr.splitlines():
        if line.startswith("import time:"):
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                name = parts[2].strip()
                if name == "matchbench":
                    tr.note("cli.import_ms", int(parts[1]) / 1e3)
                elif name == "numpy":
                    tr.note("cli.import_numpy_ms", int(parts[1]) / 1e3)
        elif line.startswith("perfbench-cli "):
            tr.note("cli.run_ms", float(line.split()[2]))


class BenchReads(Workload):
    """``bench.run_benchmark`` in reads mode plus the CSV render/parse round
    trip over all algorithms: the harness that reproduces the paper."""

    name = "bench_reads"
    SIGMAS = (4, 64, 256)
    LENGTHS = (4, 16, 64, 1024)
    SIZE = 64 * KIB
    PATTERNS = 1

    def build(self):
        # one query is one (text, algorithm) row of the harness's grid
        self.last: dict[int, list] = {}  # qid -> Measurements of its latest run
        for sigma in self.SIGMAS:
            tid = f"reads{sigma}"
            self.texts[tid] = rand_text(self.rng, sigma, self.SIZE)
            for algo in registry.REGISTRY:
                self.queries.append(Query(len(self.queries), tid, b"", algo.id, 0))

    def lengths(self, q: Query) -> tuple[int, ...]:
        algo = registry.get_algorithm(q.algo)
        return tuple(m for m in self.LENGTHS if algo.applicable(m))

    def load(self, tr) -> None:
        super().load(tr)
        # reference: occurrences of the patterns the harness samples per (text, m)
        self.patterns = {}
        for tid, text in self.loaded.items():
            for m in self.LENGTHS:
                patterns = tr.call("bench.sample_patterns", bench.sample_patterns, text, m, self.PATTERNS,
                                   bench.derive_seed(self.seed, tid, m))
                self.patterns[tid, m] = [p.data for p in patterns]
        for q in self.queries:
            q.expected = {m: self.count(q.text, m) for m in self.lengths(q)}

    def count(self, tid: str, m: int) -> int:
        return sum(len(find_all(self.texts[tid], p)) for p in self.patterns[tid, m])

    def traced_algo(self, algo, tr):
        """The descriptor with compile and scan wrapped in spans; passed to
        run_benchmark through its public ``algos`` argument."""
        layer = layer_of(algo)

        def compile_(p):
            run = tr.call(layer + ".compile", algo.compile, p)
            return lambda hay: tr.call(layer + ".scan", run, hay)

        return dataclasses.replace(algo, compile=compile_)

    def run(self, q: Query, tr):
        algo = registry.get_algorithm(q.algo)
        if tr.enabled:
            algo = self.traced_algo(algo, tr)
        cfg = bench.BenchConfig(lengths=self.LENGTHS, patterns_per_length=self.PATTERNS, seed=self.seed,
                                metric="reads")
        ms = tr.call("bench.run_benchmark", bench.run_benchmark, cfg, [self.loaded[q.text]], [algo])
        self.last[q.qid] = ms
        doc = tr.call("report.render_table", report.render_table, ms, "csv")
        return ms, tr.call("report.parse", report.parse_measurements_csv, doc)

    def check(self, q: Query, out) -> bool:
        ms, back = out
        if [cell.m for cell in ms] != list(q.expected) or len(back) != len(ms):
            return False
        return all(
            cell.algorithm == row.algorithm == q.algo and cell.m == row.m and cell.text_id == row.text_id == q.text
            and cell.metric == row.metric == "reads" and cell.runs == self.PATTERNS and cell.mean_value >= 1
            and cell.mean_occurrences * self.PATTERNS == q.expected[cell.m]
            and row.mean_value == float(report.format_value(cell.mean_value))
            and row.mean_occurrences == float(report.format_value(cell.mean_occurrences))
            for cell, row in zip(ms, back))

    def cells(self, q: Query) -> int:
        return len(q.expected)

    def nbytes(self, q: Query) -> int:
        return len(self.texts[q.text]) * self.PATTERNS * len(q.expected)

    def reference(self, q: Query):
        return {m: self.count(q.text, m) for m in q.expected}

    def exact_counts(self) -> dict:
        """Reads as the harness reports them for every cell.  Rows a pass
        already measured are reused; "scan_ns" is then None."""
        reads = dict.fromkeys(FAMILIES, 0)
        chars = dict.fromkeys(FAMILIES, 0)
        tr = Tracer(True)
        reused = all(q.qid in self.last for q in self.queries)
        for q in self.queries:
            if not reused and not self.check(q, self.run(q, tr)):
                raise RuntimeError(f"bench_reads row {q.text}/{q.algo} failed its check")
            layer = layer_of(registry.get_algorithm(q.algo))
            reads[layer] += sum(round(cell.mean_value * self.PATTERNS) for cell in self.last[q.qid])
            chars[layer] += self.nbytes(q)
        scan_ns = None if reused else sum(tr.self_times()[0][f + ".scan"] for f in FAMILIES)
        return self._counts(reads, chars, scan_ns)


WORKLOADS = {w.name: w for w in (SearchRand, SearchPeriodic, SmallTexts, CliCold, BenchReads)}


def make(name: str, seed: int) -> Workload:
    try:
        return WORKLOADS[name](seed)
    except KeyError:
        raise SystemExit(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}") from None
