from pathlib import Path

import pytest

from matchbench.bench import BenchConfig, Measurement, generate_rand_text, run_benchmark
from matchbench.registry import DEFAULT_SELECTION_MAP, M_CLASSES, SIGMA_CLASSES, get_algorithm
from matchbench.report import (
    format_value,
    parse_measurements_csv,
    render_best_map,
    render_table,
)

DATA = Path(__file__).parent / "data"


def _ms(algorithm, m, mean, family="comparison", text_id="rand2", sigma=2):
    return Measurement(text_id, sigma, family, algorithm, m, 400, mean, 0.0, 1.0, "time")


GOLDEN_FIXTURE = [
    _ms("HOR", 2, 44.6),
    _ms("HOR", 4, 46.4),
    _ms("HASH3", 4, 28.2),
    _ms("SA", 2, 16.4, family="bit-parallel"),
    _ms("SA", 4, 16.4, family="bit-parallel"),
    _ms("SBNDM", 4, 38.1, family="bit-parallel"),
]


def test_format_value_three_significant_digits():
    cases = {
        16.4: "16.4",
        0.55: "0.55",
        21.7: "21.7",
        2.47: "2.47",
        150.0: "150",
        0.0: "0",
        1048576.0: "1050000",
        52.5: "52.5",
    }
    for value, expected in cases.items():
        assert format_value(value) == expected


def test_single_measurement_row():
    out = render_table([_ms("SA", 2, 16.4, family="bit-parallel")], "md")
    assert "16.4" in out
    assert out.count("\n") == 5  # title, blank, header, separator, one row


def test_empty_input_header_only():
    assert render_table([], "csv") == (
        "text_id,sigma,family,algorithm,m,mean,stddev,mean_occurrences,metric\n"
    )
    md = render_table([], "md")
    assert md.splitlines()[0].startswith("| family | algorithm |")


def test_mixed_text_ids_rejected():
    with pytest.raises(ValueError, match="multiple texts"):
        render_table([_ms("HOR", 2, 1.0), _ms("HOR", 2, 1.0, text_id="rand4", sigma=4)])


def test_tie_goes_to_family_order():
    ms = [
        _ms("SA", 2, 5.0, family="bit-parallel"),
        _ms("HOR", 2, 5.0),  # same mean; HOR precedes SA in family order
    ]
    out = render_table(ms, "md")
    assert "**5** (1)" in out
    assert out.index("HOR") < out.index("SA")
    hor_row = next(line for line in out.splitlines() if "HOR" in line)
    assert "**5**" in hor_row


def test_render_table_pure_function():
    a = render_table(GOLDEN_FIXTURE, "md")
    b = render_table(list(reversed(GOLDEN_FIXTURE)), "md")
    assert a == b


def test_best_flag_matches_independent_argmin():
    text = generate_rand_text(8, 30_000, seed=33)
    cfg = BenchConfig(lengths=(2, 8, 32), patterns_per_length=3, seed=2, metric="reads")
    ms = run_benchmark(cfg, [text])
    out = render_table(ms, "md")
    lines = [l for l in out.splitlines() if l.startswith("|") and "---" not in l]
    header = [c.strip() for c in lines[0].strip("|").split("|")]
    columns = [int(c) for c in header[2:]]
    for ci, m in enumerate(columns):
        cell_values = {x.algorithm: x.mean_value for x in ms if x.m == m}
        best = min(sorted(cell_values), key=lambda a: cell_values[a])
        # recompute argmin independently and find the bold cell
        bold_rows = [l for l in lines[1:] if l.strip("|").split("|")[2 + ci].strip().startswith("**")]
        assert len(bold_rows) == 1
        assert f" {best} " in bold_rows[0]


def test_csv_roundtrip():
    csv_text = render_table(GOLDEN_FIXTURE, "csv")
    parsed = parse_measurements_csv(csv_text)
    assert [(p.algorithm, p.m) for p in parsed] == [(g.algorithm, g.m) for g in GOLDEN_FIXTURE]
    for p, g in zip(parsed, GOLDEN_FIXTURE):
        assert format_value(p.mean_value) == format_value(g.mean_value)
        assert p.text_id == g.text_id and p.sigma == g.sigma and p.metric == g.metric
    # render of the parsed rows is byte-identical
    assert render_table(parsed, "csv") == csv_text


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ValueError, match="line 1"):
        parse_measurements_csv("bogus,header\n")
    good = render_table(GOLDEN_FIXTURE, "csv")
    broken = good + "rand2,2,comparison,HOR,notanint,1,0,1,time\n"
    with pytest.raises(ValueError, match="line 8"):
        parse_measurements_csv(broken)
    with pytest.raises(ValueError, match="fields"):
        parse_measurements_csv(good + "rand2,2\n")


@pytest.mark.parametrize("row,error", [
    ("rand2,2,comparison,HOR,8,nan,0,1,time", "mean"),
    ("rand2,2,comparison,HOR,8,inf,0,1,time", "mean"),
    ("rand2,2,comparison,HOR,8,-1,0,1,time", "mean"),
    ("rand2,2,comparison,HOR,8,5,nan,1,time", "stddev"),
    ("rand2,2,comparison,HOR,8,5,-0.5,1,time", "stddev"),
    ("rand2,2,comparison,HOR,8,5,0,inf,time", "mean_occurrences"),
    ("rand2,2,comparison,HOR,8,5,0,-1,time", "mean_occurrences"),
    ("rand2,0,comparison,HOR,8,5,0,1,time", "sigma"),
    ("rand2,257,comparison,HOR,8,5,0,1,time", "sigma"),
    ("rand2,2,comparison,HOR,0,5,0,1,time", "m must"),
    ("rand2,2,comparison,HOR,-3,5,0,1,time", "m must"),
    ("rand2,2,comparison,HOR,8,5,0,1,bytes", "metric"),
])
def test_parse_rejects_rows_bench_cannot_write(row, error):
    # a nan mean would rank best in its column and win a best-map cell, and
    # m = 0 would render a column "0"
    good = render_table(GOLDEN_FIXTURE, "csv")
    with pytest.raises(ValueError, match=f"line 8: {error}"):
        parse_measurements_csv(good + row + "\n")


def test_parse_rejects_a_second_row_for_one_cell():
    # the md table would keep the last row and the best map average both
    good = (DATA / "golden_measurements.csv").read_text()
    with pytest.raises(ValueError, match=r"line 8: duplicate row for \(text, algorithm, m\)"):
        parse_measurements_csv(good + "rand2,2,comparison,HOR,2,1,0,1,time\n")
    # the same algorithm and m on another text is a different cell
    assert len(parse_measurements_csv(good + "rand4,4,comparison,HOR,2,1,0,1,time\n")) == 7


def test_parse_skips_comments_and_blanks():
    csv_text = "# prng=numpy-pcg64 seed=1\n" + render_table(GOLDEN_FIXTURE, "csv") + "\n"
    assert len(parse_measurements_csv(csv_text)) == 6


def test_golden_table():
    golden_csv = (DATA / "golden_measurements.csv").read_text()
    parsed = parse_measurements_csv(golden_csv)
    assert len(parsed) == 6
    assert render_table(parsed, "md") == (DATA / "golden_table.md").read_text()
    assert render_table(parsed, "csv") == golden_csv


def test_best_map_pure_fallback():
    best = render_best_map([])
    for sc in SIGMA_CLASSES:
        for mc in M_CLASSES:
            assert best.cell(sc, mc) == DEFAULT_SELECTION_MAP.cell(sc, mc)
    csv_text = best.to_csv()
    assert csv_text.splitlines()[0] == "sigma_class,m_class,algorithm,provenance"
    assert len(csv_text.strip().splitlines()) == 17


def test_best_map_measured_winner():
    ms = [
        _ms("HASH5", 16, 6.05, sigma=2),
        _ms("SA", 16, 16.4, family="bit-parallel", sigma=2),
    ]
    best = render_best_map(ms)
    cell = best.cell("very_small", "short")
    assert cell.algorithm == "HASH5"
    assert cell.provenance == "measured"
    # untouched cells keep the fallback provenance
    assert best.cell("very_small", "very_short").provenance == "paper-stated"
    md = best.to_markdown()
    assert "HASH5 [measured]" in md


def test_best_map_averages_over_cell_points():
    # HOR wins at one point, SA wins on the cell average
    ms = [
        _ms("HOR", 8, 10.0, sigma=2),
        _ms("HOR", 16, 30.0, sigma=2),
        _ms("SA", 8, 12.0, family="bit-parallel", sigma=2),
        _ms("SA", 16, 12.0, family="bit-parallel", sigma=2),
    ]
    assert render_best_map(ms).cell("very_small", "short").algorithm == "SA"
