"""Result tables and the best-algorithm map.

Tables group algorithms by family (comparison, automata, bit-parallel) in
registry order, one column per pattern length, blank ("-") cells exactly
where applicability excluded the run.  Values are printed to 3 significant
digits.  In Markdown output every cell carries its within-column rank and
the per-column best is bold: ranks are a testable stand-in for color
shading.  ``_COLUMNS`` states the measurement CSV schema once, for the
header, the writer and the parser.
"""

from __future__ import annotations

import csv
import io
import math

from .bench import METRICS, Measurement
from .registry import (
    DEFAULT_SELECTION_MAP,
    M_CLASSES,
    MEASURED,
    REGISTRY,
    SIGMA_CLASSES,
    MapCell,
    SelectionMap,
    classify,
)

# (CSV column, Measurement field, type); the type is also the field's parser
_COLUMNS = (
    ("text_id", "text_id", str), ("sigma", "sigma", int), ("family", "family", str),
    ("algorithm", "algorithm", str), ("m", "m", int), ("mean", "mean_value", float),
    ("stddev", "stddev", float), ("mean_occurrences", "mean_occurrences", float),
    ("metric", "metric", str),
)
CSV_HEADER = tuple(column for column, _, _ in _COLUMNS)

_ALGO_ORDER = {a.id: i for i, a in enumerate(REGISTRY)}


def format_value(x: float) -> str:
    """3 significant digits, plain decimal, trailing zeros stripped."""
    if x == 0:
        return "0"
    if not math.isfinite(x):
        return str(x)
    digits = 2 - math.floor(math.log10(abs(x)))
    y = round(x, digits)
    if digits <= 0:
        return str(int(y))
    s = f"{y:.{digits}f}".rstrip("0").rstrip(".")
    return s if s not in ("", "-") else "0"


def _algo_key(algo: str) -> tuple:
    """Registry order, with unknown ids last by name."""
    return (_ALGO_ORDER.get(algo, len(_ALGO_ORDER)), algo)


def _check_single(measurements, field: str, what: str) -> None:
    values = {getattr(ms, field) for ms in measurements}
    if len(values) > 1:
        raise ValueError(f"measurements span multiple {what}: {sorted(values)}")


def render_table(measurements, fmt: str = "md") -> str:
    """Deterministic document for one text's measurements of one metric.

    csv: one row per measurement.  md: the algorithm x m matrix with
    per-column ranks and the best cell bold.
    """
    measurements = sorted(measurements, key=lambda ms: (_algo_key(ms.algorithm), ms.m))
    _check_single(measurements, "text_id", "texts")
    _check_single(measurements, "metric", "metrics")
    if fmt == "csv":
        return _render_csv(measurements)
    if fmt == "md":
        return _render_md(measurements)
    raise ValueError(f"unknown format {fmt!r}")


def _render_csv(measurements) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for ms in measurements:
        writer.writerow([format_value(getattr(ms, field)) if kind is float else getattr(ms, field)
                         for _, field, kind in _COLUMNS])
    return buf.getvalue()


def _render_md(measurements) -> str:
    if not measurements:
        return "| family | algorithm |\n|---|---|\n"
    first = measurements[0]
    columns = sorted({ms.m for ms in measurements})
    by_algo: dict[str, dict[int, Measurement]] = {}
    for ms in measurements:
        by_algo.setdefault(ms.algorithm, {})[ms.m] = ms
    rows = sorted(by_algo, key=_algo_key)

    # per-column rank by mean value; single best flag per column, ties
    # resolved by row (family) order
    ranks: dict[tuple[str, int], int] = {}
    best: dict[int, str] = {}
    for m in columns:
        cells = [(algo, by_algo[algo][m].mean_value) for algo in rows if m in by_algo[algo]]
        for algo, value in cells:
            ranks[(algo, m)] = 1 + sum(1 for _, v in cells if v < value)
        if cells:
            best[m] = min(cells, key=lambda av: av[1])[0]

    lines = [
        f"# {first.text_id} (sigma={first.sigma}, metric={first.metric})",
        "",
        "| family | algorithm | " + " | ".join(str(m) for m in columns) + " |",
        "|---|---|" + "---|" * len(columns),
    ]
    for algo in rows:
        family = next(iter(by_algo[algo].values())).family
        cells = []
        for m in columns:
            ms = by_algo[algo].get(m)
            if ms is None:
                cells.append("-")
                continue
            value = format_value(ms.mean_value)
            if best.get(m) == algo:
                cells.append(f"**{value}** ({ranks[(algo, m)]})")
            else:
                cells.append(f"{value} ({ranks[(algo, m)]})")
        lines.append(f"| {family} | {algo} | " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"


def _check_row(ms: Measurement) -> None:
    # what every row that bench writes satisfies
    if ms.metric not in METRICS:
        raise ValueError(f"metric must be one of {METRICS}, got {ms.metric!r}")
    if not 1 <= ms.sigma <= 256:
        raise ValueError(f"sigma must be in [1, 256], got {ms.sigma}")
    if ms.m < 1:
        raise ValueError(f"m must be >= 1, got {ms.m}")
    for column, field, kind in _COLUMNS:
        if kind is float and not 0 <= getattr(ms, field) < math.inf:
            raise ValueError(f"{column} must be finite and >= 0, got {getattr(ms, field)}")


def parse_measurements_csv(content: str) -> list[Measurement]:
    """Inverse of render_table(..., "csv"); blank lines, and '#' lines
    before the header row, are skipped.

    After the header a leading '#' is data: a text id may start with it.
    Rows that bench cannot write (see ``_check_row``, or a second row for
    one text, algorithm, m and metric) are rejected.  Parse failures
    report the 1-based line number.
    """
    rows: dict[tuple, Measurement] = {}
    reader = csv.reader(io.StringIO(content))
    header_seen = False
    for lineno, row in enumerate(reader, start=1):
        if not row or (not header_seen and row[0].startswith("#")):
            continue
        if not header_seen:
            if tuple(row) != CSV_HEADER:
                raise ValueError(f"line {lineno}: expected header {','.join(CSV_HEADER)}")
            header_seen = True
            continue
        if len(row) != len(CSV_HEADER):
            raise ValueError(f"line {lineno}: expected {len(CSV_HEADER)} fields, got {len(row)}")
        try:
            ms = Measurement(runs=0, **{field: kind(value)
                                        for (_, field, kind), value in zip(_COLUMNS, row)})
            _check_row(ms)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        # a row of another metric is no duplicate; rendering refuses the mix
        if rows.setdefault((ms.text_id, ms.algorithm, ms.m, ms.metric), ms) is not ms:
            raise ValueError(f"line {lineno}: duplicate row for (text, algorithm, m)")
    if not header_seen and content.strip():
        raise ValueError("line 1: missing header row")
    return list(rows.values())


def render_best_map(measurements) -> SelectionMap:
    """Measured winner per cell where data exists, default map entry
    (with its paper-stated / derived-fill provenance) elsewhere.

    The measured winner is the algorithm with the lowest mean over the
    cell's sampled (sigma, m) points; ties go to registry order.  Means of
    different metrics are not comparable, so a mix raises ValueError.
    """
    _check_single(measurements, "metric", "metrics")
    per_cell: dict[tuple[str, str], dict[str, list[float]]] = {}
    for ms in measurements:
        cell = per_cell.setdefault(classify(ms.sigma, ms.m), {})
        cell.setdefault(ms.algorithm, []).append(ms.mean_value)

    cells = {}
    for sc in SIGMA_CLASSES:
        for mc in M_CLASSES:
            data = per_cell.get((sc, mc))
            if data:
                winner = min(data, key=lambda a: (sum(data[a]) / len(data[a]), _algo_key(a)))
                cells[(sc, mc)] = MapCell(winner, MEASURED)
            else:
                cells[(sc, mc)] = DEFAULT_SELECTION_MAP.cell(sc, mc)
    return SelectionMap(cells)
