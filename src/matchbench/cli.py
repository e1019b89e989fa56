"""Command-line interface.

Subcommands: gen (random text files), bench (measurement CSV), report
(tables / best map from a CSV), search (positions of a pattern in a file,
grep-style exit codes) and verify (differential check of every algorithm
against brute force).  Only core and the registry load at start; each
subcommand imports the rest of what it runs, so a cold ``search`` loads no
benchmark, report or differential code.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import __version__
from .core import ALLOWED_SIGMAS, load_corpus
from .registry import REGISTRY, get_algorithm, select_applicable


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matchbench",
        description="Exact single-pattern search algorithms, benchmarks and reports.",
    )
    parser.add_argument("--version", action="version", version=f"matchbench {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a uniform random text file")
    p.add_argument("--sigma", type=int, required=True, help=f"alphabet size, one of {ALLOWED_SIGMAS}")
    p.add_argument("--size", type=int, default=2**20, help="bytes to generate (default 1 MiB)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", required=True, help="output file (raw bytes)")
    p.add_argument("--allow-any-sigma", action="store_true",
                   help="accept alphabet sizes outside the standard set")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("bench", help="run the benchmark over one text file")
    p.add_argument("--text", required=True, help="text file (raw bytes)")
    p.add_argument("--id", help="text id for the report (default: file stem)")
    p.add_argument("--algos", default="all", help="comma-separated ids or 'all'")
    p.add_argument("--lengths", help="comma-separated pattern lengths")
    p.add_argument("--patterns", type=int, default=400, help="patterns per length")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--metric", choices=("time", "reads"), default="time")
    p.add_argument("--out", help="CSV output path (default stdout)")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("report", help="render a measurement CSV")
    p.add_argument("--in", dest="infile", required=True, help="measurement CSV")
    p.add_argument("--format", choices=("md", "csv"), default="md")
    p.add_argument("--best-map", action="store_true",
                   help="render the best-algorithm map instead of the table")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("search", help="print occurrences of a pattern in a file")
    p.add_argument("--algo", default="auto", help="algorithm id or 'auto'")
    p.add_argument("--pattern", help="pattern: the argument's own bytes, \\xNN escapes accepted")
    p.add_argument("--pattern-file", help="file holding the raw pattern bytes (wins over --pattern)")
    p.add_argument("--text", required=True, help="text file (raw bytes)")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("verify", help="differential-test algorithms against brute force")
    p.add_argument("--cases", type=int, default=10000, help="total randomized cases")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--algos", default="all", help="comma-separated ids or 'all'")
    p.set_defaults(func=cmd_verify)
    return parser


def _parse_algos(spec: str):
    if spec.strip().lower() == "all":
        return list(REGISTRY)
    # a repeated id (in any case) runs once, at its first position
    return list(dict.fromkeys(get_algorithm(name.strip()) for name in spec.split(",") if name.strip()))


def parse_pattern_bytes(s: str) -> bytes:
    r"""The argument's own bytes, as typed, with \xNN (and standard
    backslash) escapes applied."""
    return os.fsencode(s).decode("unicode_escape").encode("latin-1")


def cmd_gen(args) -> int:
    from .bench import generate_rand_text

    text = generate_rand_text(args.sigma, args.size, args.seed,
                              allow_any_sigma=args.allow_any_sigma)
    Path(args.out).write_bytes(text.data)
    print(f"wrote {args.out}: n={len(text)} sigma={args.sigma} seed={args.seed}")
    return 0


def cmd_bench(args) -> int:
    from .bench import DEFAULT_LENGTHS, PRNG_NAME, BenchConfig, run_benchmark
    from .report import render_table

    text = load_corpus(args.text, expected_id=args.id)
    algos = _parse_algos(args.algos)
    if args.lengths is None:
        lengths = DEFAULT_LENGTHS
    else:
        lengths = tuple(sorted({int(x) for x in args.lengths.split(",") if x.strip()}))
    cfg = BenchConfig(lengths=lengths, patterns_per_length=args.patterns,
                      seed=args.seed, metric=args.metric)
    ms = run_benchmark(cfg, [text], algos)
    if not ms:
        raise ValueError("no (algorithm, length) cell fits: every length exceeds the text"
                         " or no listed algorithm is applicable at any length")
    import numpy as np  # only for its version in the metadata line

    meta = (
        f"# prng={PRNG_NAME} numpy={np.__version__} seed={args.seed}"
        f" patterns={args.patterns} metric={args.metric} text={text.id} n={len(text)}\n"
    )
    out = meta + render_table(ms, "csv")
    if args.out:
        Path(args.out).write_text(out)
        print(f"wrote {args.out}: {len(ms)} measurements", file=sys.stderr)
    else:
        sys.stdout.write(out)
    return 0


def cmd_report(args) -> int:
    from .report import parse_measurements_csv, render_best_map, render_table

    content = Path(args.infile).read_text()
    try:
        ms = parse_measurements_csv(content)
    except ValueError as exc:
        raise ValueError(f"{args.infile}: {exc}") from exc
    if args.best_map:
        best = render_best_map(ms)
        sys.stdout.write(best.to_csv() if args.format == "csv" else best.to_markdown())
    elif not ms:
        raise ValueError(f"{args.infile}: no measurements")
    else:
        sys.stdout.write(render_table(ms, args.format))
    return 0


def cmd_search(args) -> int:
    if args.pattern_file:
        raw = Path(args.pattern_file).read_bytes()
    elif args.pattern is not None:
        raw = parse_pattern_bytes(args.pattern)
    else:
        raise ValueError("one of --pattern / --pattern-file is required")
    text = load_corpus(args.text)
    if args.algo.strip().lower() == "auto":
        sigma = max(text.alphabet_size(), 1)
        algo = select_applicable(sigma, len(raw))
    else:
        algo = get_algorithm(args.algo)
    positions = algo.search(raw, text)
    if positions:
        try:
            sys.stdout.write("\n".join(map(str, positions)) + "\n")
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader stopped early (`| head`): what was found still sets the
            # status, and the exit-time flush goes to devnull, not to stderr
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
    return 0 if positions else 1


def cmd_verify(args) -> int:
    from .differential import run_differential

    algos = _parse_algos(args.algos)
    report = run_differential(args.cases, args.seed, algos)
    for algo_id, count in report.cases_per_algorithm.items():
        print(f"{algo_id}: {count} cases")
    print(f"total: {report.total_cases} cases, {len(report.mismatches)} mismatches")
    if report.mismatches:
        for mm in report.mismatches:
            print(f"MISMATCH {mm.describe()}")
        return 1
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyError as exc:  # unknown algorithm id; str() would quote the message
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())
