import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from matchbench.cli import main, parse_pattern_bytes
from matchbench.core import brute_force_search
from matchbench.registry import DEFAULT_SELECTION_MAP, REGISTRY

from conftest import child_env


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_deterministic(tmp_path, capsys):
    out1 = tmp_path / "a.bin"
    out2 = tmp_path / "b.bin"
    code, out, _ = run_cli(capsys, "gen", "--sigma", "4", "--size", "65536", "--seed", "42",
                           "--out", str(out1))
    assert code == 0
    assert "n=65536" in out and "sigma=4" in out
    run_cli(capsys, "gen", "--sigma", "4", "--size", "65536", "--seed", "42", "--out", str(out2))
    h1 = hashlib.sha256(out1.read_bytes()).hexdigest()
    h2 = hashlib.sha256(out2.read_bytes()).hexdigest()
    assert h1 == h2
    assert len(out1.read_bytes()) == 65536


def test_gen_rejects_nonstandard_sigma(tmp_path, capsys):
    target = tmp_path / "c.bin"
    code, _, err = run_cli(capsys, "gen", "--sigma", "3", "--size", "100", "--out", str(target))
    assert code == 2
    assert "sigma" in err
    code, _, _ = run_cli(capsys, "gen", "--sigma", "3", "--size", "100", "--seed", "1",
                         "--out", str(target), "--allow-any-sigma")
    assert code == 0
    assert set(target.read_bytes()) <= {0, 1, 2}


def test_bench_rejects_lengths_below_one(tmp_path, capsys):
    path = tmp_path / "t.bin"
    path.write_bytes(b"abcd" * 100)
    out = tmp_path / "empty.csv"
    for lengths in ("0,-3", "-1", "0,4"):
        code, _, err = run_cli(capsys, "bench", "--text", str(path), "--lengths", lengths,
                               "--patterns", "2", "--metric", "reads", "--out", str(out))
        assert code == 2
        assert ">= 1" in err
        assert not out.exists()


def test_bench_rejects_no_fitting_cell(tmp_path, capsys):
    # every length beyond the text, or no listed algorithm applicable at
    # any length: nothing would be measured
    path = tmp_path / "t.bin"
    path.write_bytes(bytes(range(100)))
    out = tmp_path / "o.csv"
    for argv in (("--lengths", "1024"), ("--algos", "BNDM", "--lengths", "65,80")):
        code, stdout, err = run_cli(capsys, "bench", "--text", str(path), *argv,
                                    "--patterns", "2", "--metric", "reads", "--out", str(out))
        assert code == 2
        assert "no (algorithm, length) cell fits" in err
        assert stdout == ""
        assert not out.exists()


def test_verify_rejects_no_cases(capsys):
    for cases in ("0", "-5"):
        code, out, err = run_cli(capsys, "verify", "--cases", cases)
        assert code == 2
        assert "cases" in err
        assert out == ""


def test_unknown_algorithm_exits_2(tmp_path, capsys):
    # for verify, exit 1 would read as "mismatches found"
    path = tmp_path / "t.bin"
    path.write_bytes(b"abcd" * 100)
    for argv in (("bench", "--text", str(path), "--metric", "reads"), ("verify", "--cases", "10")):
        code, _, err = run_cli(capsys, *argv, "--algos", "NOPE")
        assert code == 2
        assert "unknown algorithm 'NOPE'" in err
        assert "Traceback" not in err


def test_python_dash_m_runs_the_cli(tmp_path):
    path = tmp_path / "t.txt"
    path.write_bytes(b"abcabc")
    env = child_env()
    done = subprocess.run([sys.executable, "-m", "matchbench", "search", "--pattern", "abc",
                           "--text", str(path)], capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["0", "3"]
    done = subprocess.run([sys.executable, "-m", "matchbench", "search", "--pattern", "zzz",
                           "--text", str(path)], capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 1


def test_missing_text_file_exits_2(capsys):
    code, _, err = run_cli(capsys, "search", "--pattern", "a", "--text", "/nonexistent/file")
    assert code == 2


@pytest.fixture
def small_text(tmp_path, capsys):
    path = tmp_path / "rand4.bin"
    run_cli(capsys, "gen", "--sigma", "4", "--size", "4096", "--seed", "11", "--out", str(path))
    return path


def test_bench_reads_deterministic_csv(small_text, tmp_path, capsys):
    out1 = tmp_path / "one.csv"
    out2 = tmp_path / "two.csv"
    args = ["bench", "--text", str(small_text), "--algos", "HOR,SO,HASH8",
            "--lengths", "2,8,16", "--patterns", "3", "--seed", "5", "--metric", "reads"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    content = out1.read_text()
    assert content.startswith("# prng=numpy-pcg64")
    # HASH8 appears only at m >= 8; SO and HOR at every length
    data_lines = [l for l in content.splitlines() if l and not l.startswith(("#", "text_id"))]
    assert sum(1 for l in data_lines if ",HASH8," in l) == 2
    assert sum(1 for l in data_lines if ",SO," in l) == 3


def test_bench_all_algos_to_stdout(small_text, capsys):
    code, out, _ = run_cli(capsys, "bench", "--text", str(small_text), "--algos", "all",
                           "--lengths", "4", "--patterns", "2", "--metric", "reads")
    assert code == 0
    lines = [l for l in out.splitlines() if l and not l.startswith(("#", "text_id"))]
    names = {l.split(",")[3] for l in lines}
    assert "HASH5" not in names and "SSEF" not in names and "SBNDMq8" not in names
    assert {"HOR", "QS", "BR", "TVSBS", "FJS", "HASH3", "BOM", "EBOM", "SO", "SA",
            "BNDM", "SBNDM", "LBNDM", "SBNDM-BMH", "BMH-SBNDM", "FSBNDM",
            "SBNDMq2", "SBNDMq4"} == names


def test_bench_inapplicable_only_gives_empty_data(small_text, capsys):
    # no data row means no CSV at all: the run is refused, not written empty
    code, out, err = run_cli(capsys, "bench", "--text", str(small_text), "--algos", "HASH8",
                             "--lengths", "4", "--patterns", "2", "--metric", "reads")
    assert code == 2
    assert out == ""
    assert "no (algorithm, length) cell fits" in err


def test_repeated_algo_id_runs_once(small_text, capsys):
    code, out, _ = run_cli(capsys, "bench", "--text", str(small_text), "--algos", "HOR,hor",
                           "--lengths", "4,8", "--patterns", "2", "--metric", "reads")
    assert code == 0
    rows = [l.split(",") for l in out.splitlines() if l and not l.startswith(("#", "text_id"))]
    assert [(r[3], r[4]) for r in rows] == [("HOR", "4"), ("HOR", "8")]
    code, out, _ = run_cli(capsys, "verify", "--cases", "20", "--seed", "7", "--algos", "HOR,hor")
    assert code == 0
    assert out.splitlines() == ["HOR: 20 cases", "total: 20 cases, 0 mismatches"]


def test_report_roundtrip_and_golden(tmp_path, capsys):
    golden_csv = Path(__file__).parent / "data" / "golden_measurements.csv"
    golden_md = (Path(__file__).parent / "data" / "golden_table.md").read_text()
    code, out, _ = run_cli(capsys, "report", "--in", str(golden_csv), "--format", "md")
    assert code == 0
    assert out == golden_md
    code, out, _ = run_cli(capsys, "report", "--in", str(golden_csv), "--format", "csv")
    assert code == 0
    assert out == golden_csv.read_text()


def test_report_reads_text_ids_starting_with_hash(tmp_path, capsys):
    # bench's '#' metadata line is a comment; a '#' text id after the header is data
    text = tmp_path / "#notes.bin"
    text.write_bytes(b"abcabd" * 50)
    csv_path = tmp_path / "n.csv"
    code, _, _ = run_cli(capsys, "bench", "--text", str(text), "--algos", "HOR",
                         "--lengths", "2,4", "--metric", "reads", "--out", str(csv_path))
    assert code == 0
    code, out, _ = run_cli(capsys, "report", "--in", str(csv_path), "--format", "csv")
    assert code == 0
    assert out == csv_path.read_text().split("\n", 1)[1]
    assert [l.split(",")[:5] for l in out.splitlines()[1:]] == [
        ["#notes", "4", "comparison", "HOR", "2"], ["#notes", "4", "comparison", "HOR", "4"]]


def test_report_parse_error_has_line_number(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("text_id,sigma,family,algorithm,m,mean,stddev,mean_occurrences,metric\nx,2,c,HOR,zzz,1,0,1,time\n")
    code, _, err = run_cli(capsys, "report", "--in", str(bad))
    assert code == 2
    assert "line 2" in err


def test_report_best_map_fallback(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("text_id,sigma,family,algorithm,m,mean,stddev,mean_occurrences,metric\n")
    code, out, _ = run_cli(capsys, "report", "--in", str(empty), "--best-map", "--format", "csv")
    assert code == 0
    assert out == DEFAULT_SELECTION_MAP.to_csv()
    code, out, _ = run_cli(capsys, "report", "--in", str(empty), "--best-map")
    assert code == 0
    assert "SA [paper-stated]" in out


def test_report_refuses_empty_measurements(tmp_path, capsys):
    # an empty or header-only CSV is no work: the table mode exits 2
    # (--best-map still prints the default map, pinned above)
    for name, content in (("empty.csv", ""), ("header.csv",
                          "text_id,sigma,family,algorithm,m,mean,stddev,mean_occurrences,metric\n")):
        path = tmp_path / name
        path.write_text(content)
        code, out, err = run_cli(capsys, "report", "--in", str(path))
        assert code == 2
        assert out == ""
        assert err == f"error: {path}: no measurements\n"


def test_report_refuses_mixed_metrics(tmp_path, capsys):
    # means of different metrics are not comparable: a table titled by one
    # metric, or a map averaging ms with reads, would mislabel them
    path = tmp_path / "mixed.csv"
    path.write_text(
        "text_id,sigma,family,algorithm,m,mean,stddev,mean_occurrences,metric\n"
        "t,2,comparison,HOR,4,12,0,1,time\n"
        "t,2,comparison,HOR,4,900,0,1,reads\n"
        "t,2,bit-parallel,SA,4,50,0,1,reads\n"
    )
    for extra in ((), ("--best-map",), ("--best-map", "--format", "csv")):
        code, out, err = run_cli(capsys, "report", "--in", str(path), *extra)
        assert code == 2, extra
        assert out == ""
        assert err == "error: measurements span multiple metrics: ['reads', 'time']\n"


def test_search_auto_small_alphabet(tmp_path, capsys):
    data = bytes([0, 1, 1, 0, 1, 1, 0, 0, 1, 1]) * 30
    path = tmp_path / "bin2"
    path.write_bytes(data)
    code, out, _ = run_cli(capsys, "search", "--algo", "auto", "--pattern", r"\x01\x01",
                           "--text", str(path))
    assert code == 0
    got = [int(line) for line in out.splitlines()]
    assert got == brute_force_search(b"\x01\x01", data)


def test_search_exit_codes(tmp_path, capsys):
    path = tmp_path / "t.txt"
    path.write_bytes(b"abcabc")
    code, out, _ = run_cli(capsys, "search", "--pattern", "abc", "--text", str(path))
    assert code == 0
    assert out.splitlines() == ["0", "3"]
    code, out, _ = run_cli(capsys, "search", "--pattern", "zzz", "--text", str(path))
    assert code == 1
    assert out == ""
    # inapplicable algorithm names its bound
    code, _, err = run_cli(capsys, "search", "--algo", "SSEF", "--pattern", "abcabc",
                           "--text", str(path))
    assert code == 2
    assert "m >= 32" in err
    code, _, err = run_cli(capsys, "search", "--algo", "NOPE", "--pattern", "a",
                           "--text", str(path))
    assert code == 2
    code, _, err = run_cli(capsys, "search", "--text", str(path))
    assert code == 2
    code, _, err = run_cli(capsys, "search", "--pattern", "", "--text", str(path))
    assert code == 2
    assert "pattern length must be >= 1" in err
    code, _, err = run_cli(capsys, "search", "--algo", "HOR", "--pattern", "", "--text", str(path))
    assert code == 2
    assert "pattern must have length >= 1" in err


def test_search_needs_no_numpy(tmp_path):
    # only gen, bench and verify draw random numbers; a module-level numpy
    # import anywhere on the search path would fail here.  search also loads
    # none of the bench, report and differential modules.
    path = tmp_path / "t.txt"
    path.write_bytes(b"abcabc")
    code = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "import matchbench\n"
        "from matchbench import cli\n"
        "for algo in ('auto', 'HOR'):\n"
        "    assert cli.main(['search', '--algo', algo, '--pattern', 'abc', '--text', sys.argv[1]]) == 0\n"
        "loaded = {'matchbench.bench', 'matchbench.report', 'matchbench.differential'} & set(sys.modules)\n"
        "assert not loaded, loaded\n"
    )
    done = subprocess.run([sys.executable, "-c", code, str(path)], capture_output=True, text=True,
                          env=child_env(), timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["0", "3", "0", "3"]


def test_loading_a_corpus_needs_no_catalogue(tmp_path):
    # the set-up path of every benchmark run imports core and bench only:
    # neither the registry, nor a searcher module, nor dataclasses (unless
    # the interpreter's own start-up loads it); run_benchmark without an
    # algorithm list still loads the registry and runs every row that applies
    path = tmp_path / "t.txt"
    path.write_bytes(b"abracadabra" * 8)
    code = (
        "import json, sys\n"
        "import matchbench\n"
        "from matchbench.bench import load_corpus\n"
        "text = load_corpus(sys.argv[1])\n"
        "catalogue = {'matchbench.registry', 'matchbench.comparison', 'matchbench.automata',\n"
        "             'matchbench.bitparallel', 'dataclasses'}\n"
        "print(json.dumps(sorted(catalogue & set(sys.modules))))\n"
        "from matchbench import bench\n"
        "cfg = bench.BenchConfig(lengths=(2, 8, 64), patterns_per_length=1, metric='reads')\n"
        "print(json.dumps(sorted({ms.algorithm for ms in bench.run_benchmark(cfg, [text])})))\n"
    )
    bare = subprocess.run([sys.executable, "-c", "import sys; print('dataclasses' in sys.modules)"],
                          capture_output=True, text=True, env=child_env(), timeout=60)
    done = subprocess.run([sys.executable, "-c", code, str(path)], capture_output=True, text=True,
                          env=child_env(), timeout=60)
    assert done.returncode == 0, done.stderr
    loaded, ran = map(json.loads, done.stdout.splitlines())
    assert loaded == (["dataclasses"] if bare.stdout.strip() == "True" else [])
    assert ran == sorted(a.id for a in REGISTRY if any(a.applicable(m) for m in (2, 8, 64)))


def test_search_into_a_closed_pipe_exits_0(tmp_path):
    # `matchbench search ... | head -n 1`: the reader leaves after one line of
    # about 1.5 MB of positions; the search still found them, so it exits 0
    path = tmp_path / "zeros.bin"
    path.write_bytes(bytes(1 << 18))
    with subprocess.Popen([sys.executable, "-m", "matchbench", "search", "--pattern", r"\x00\x00",
                           "--text", str(path)], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=child_env()) as proc:
        assert proc.stdout.readline() == b"0\n"
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    assert proc.returncode == 0
    assert err == b""


def test_search_pattern_file_wins(tmp_path, capsys):
    text = tmp_path / "t.txt"
    text.write_bytes(b"xxabyy")
    pat = tmp_path / "p.bin"
    pat.write_bytes(b"ab")
    code, out, _ = run_cli(capsys, "search", "--pattern", "zz", "--pattern-file", str(pat),
                           "--text", str(text))
    assert code == 0
    assert out.splitlines() == ["2"]


def test_parse_pattern_bytes_escapes():
    assert parse_pattern_bytes(r"\x00\xffa") == b"\x00\xffa"
    assert parse_pattern_bytes("plain") == b"plain"
    assert parse_pattern_bytes(r"a\\b") == b"a\\b"


def test_parse_pattern_bytes_takes_the_arguments_own_bytes():
    # argv arrives decoded with the filesystem encoding; the pattern is the
    # bytes the user typed, not their Latin-1 re-encoding
    assert parse_pattern_bytes(os.fsdecode(b"caf\xc3\xa9")) == b"caf\xc3\xa9"
    assert parse_pattern_bytes(os.fsdecode(b"\xff")) == b"\xff"


def test_search_finds_a_utf8_pattern(tmp_path, capsys):
    path = tmp_path / "u.txt"
    path.write_bytes("café au lait\n".encode("utf-8"))
    code, out, _ = run_cli(capsys, "search", "--pattern", os.fsdecode("café".encode("utf-8")),
                           "--text", str(path))
    assert code == 0
    assert out.splitlines() == ["0"]
    # a character outside Latin-1 is searched for, not a codec error
    code, out, _ = run_cli(capsys, "search", "--pattern", os.fsdecode("中".encode("utf-8")),
                           "--text", str(path))
    assert code == 1
    assert out == ""


def test_verify_command(capsys):
    code, out, _ = run_cli(capsys, "verify", "--cases", "100", "--seed", "7")
    assert code == 0
    assert "0 mismatches" in out
    code, out, _ = run_cli(capsys, "verify", "--cases", "40", "--seed", "7", "--algos", "HASH5")
    assert code == 0
    assert out.startswith("HASH5: 40 cases")
