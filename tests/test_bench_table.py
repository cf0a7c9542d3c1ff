import ast
import json
import statistics
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import blas_core, load_module

ROOT = Path(__file__).resolve().parents[1]
CRITERION_1 = "crit1.ratio(passed)"


def tool(name):
    return load_module(f"tools/{name}.py")


def test_one_row_per_committed_snapshot():
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "bench_table.py")],
                          capture_output=True, text=True, check=True)
    header, *rows = [line.split() for line in done.stdout.splitlines()]
    snapshots = sorted(path.stem for path in ROOT.glob("BENCH_*.json"))
    assert sorted(row[0] for row in rows) == snapshots
    assert all(len(row) == len(header) for row in rows)
    normalised = [header.index(name) for name in
                  ("floor_s", "sweep/floor", "long_run/floor", "sweep10/floor",
                   CRITERION_1)]
    for row in rows:
        # BENCH_6 predates the criterion-1 record, so it has no floor.
        missing = {row[i] for i in normalised} == {"-"}
        assert missing == (row[0] == "BENCH_6")
        if not missing:
            runs = json.loads((ROOT / f"{row[0]}.json").read_text())[
                "criterion_1"]["change"]
            median = statistics.median(run["ratio"] for run in runs)
            passed = sum(run["passed"] for run in runs)
            assert (row[header.index(CRITERION_1)]
                    == f"{median:.2f}({passed}/{len(runs)})")


SCORED = {"sweep": {"metrics": {"wall_s": {"value": 0.5}},
                    "control_s": [0.4, 0.6]},
          "long_run": {"metrics": {"wall_s": {"value": 2.0}},
                       "control_s": [0.8, 0.8]}}
SRC_LINES = {"src_lines": {"cli.py": 200, "experiment.py": 530}}


# A snapshot, a column of its row and the cell printed there; a snapshot
# older than a column's entry prints a dash.
@pytest.mark.parametrize("snapshot, column, cell", [
    ({"criterion_1": {"change": [{"ratio": r, "passed": r <= 2.0,
                                  "floor_s": 1.0} for r in (1.6, 2.1, 2.3)]}},
     CRITERION_1, "2.10(1/3)"),
    ({}, CRITERION_1, "-"),
    ({"n9_one_seed": {"change": {"wall_s": [1.9, 1.7, 1.8],
                                 "median_s": 1.8},
                      "baseline": {"median_s": 2.5}}},
     "n9x1.median_s", "1.800"),
    ({}, "n9x1.median_s", "-"),
    ({"scored": SCORED}, "sweep/control", "1.00"),
    ({"scored": SCORED}, "long_run/control", "2.50"),
    ({"scored": dict(SCORED, long_run={"metrics": {"wall_s": {"value": 2.0}}})},
     "long_run/control", "-"),
    ({}, "sweep/control", "-"),
    ({"environment": SRC_LINES}, "src_lines", "730"),
    ({}, "src_lines", "-"),
    ({"environment": {"commit": "abc"}}, "src_lines", "-"),
    ({"environment": dict(SRC_LINES, src_code_lines={"cli.py": 120,
                                                     "experiment.py": 330})},
     "src_code_lines", "450"),
    ({}, "src_code_lines", "-"),
    ({"environment": SRC_LINES}, "src_code_lines", "-"),
], ids=["criterion_1_failed_runs", "criterion_1_older", "n9", "n9_older",
        "sweep_control", "long_run_control", "long_run_control_older",
        "sweep_control_older", "src_lines", "src_lines_older",
        "src_lines_no_count", "code_lines", "code_lines_older",
        "code_lines_no_count"])
def test_a_column_prints_its_cell(snapshot, column, cell):
    assert dict(tool("bench_table").columns(snapshot))[column] == cell


SOURCE = '''"""A module docstring
over two lines."""
import os  # a comment after code

# A comment line.
def f():
    """A function docstring."""
    text = """a string that is no docstring,

# with a blank line and a comment-like line in it"""
    return text
'''


def test_code_lines_skip_blanks_comments_and_docstrings():
    # Code: import, def, the three lines of the assigned string, return.
    assert tool("bench_record").code_lines(SOURCE) == 6
    assert tool("bench_record").code_lines("") == 0


def test_the_host_control_imports_a_callable(monkeypatch):
    # bench_record's CONTROL imports the floor from the acceptance suite
    # through sys.path; run its set-up, as the tool does from the root of
    # the checkout, and check that each name it imports resolves. Not timed.
    *setup, _ = ast.parse(tool("bench_record").CONTROL).body
    imports = [node for node in setup if isinstance(node, ast.ImportFrom)]
    assert imports
    monkeypatch.chdir(ROOT)
    # Only CONTROL's own sys.path entry may find the module.
    monkeypatch.setattr(sys, "path", [entry for entry in sys.path if
                                      Path(entry).resolve() != ROOT / "tests"])
    for node in imports:
        monkeypatch.delitem(sys.modules, node.module, raising=False)
    namespace = {}
    exec(compile(ast.Module(setup, []), "CONTROL", "exec"), namespace)
    for node in imports:
        for alias in node.names:
            assert callable(namespace[alias.asname or alias.name])


def test_paired_alternates_checkouts_and_keeps_run_order(tmp_path):
    calls = []

    def job(checkout, out):
        calls.append(checkout)
        return len(calls)

    checkouts = {"change": tmp_path / "c", "baseline": tmp_path / "b"}
    record = tool("bench_record").paired(checkouts, 3, job)
    assert calls == [checkouts["change"], checkouts["baseline"]] * 3
    assert record == {"change": [1, 3, 5], "baseline": [2, 4, 6]}


def test_paired_compares_the_metrics_csv_bytes(tmp_path):
    paired = tool("bench_record").paired

    def writer(text):
        def job(checkout, out):
            out.mkdir()
            (out / "metrics.csv").write_text(text[checkout.name])
        return job

    checkouts = {"change": tmp_path / "c", "baseline": tmp_path / "b"}
    same = paired(checkouts, 2, writer({"c": "x\n", "b": "x\n"}))
    assert same["metrics_csv_identical"] is True
    other = paired(checkouts, 2, writer({"c": "x\n", "b": "y\n"}))
    assert other["metrics_csv_identical"] is False
    alone = paired({"change": checkouts["change"]}, 2, writer({"c": "x\n"}))
    assert "metrics_csv_identical" not in alone


def shape(value):
    """The nested keys and value types of a JSON value."""
    if isinstance(value, dict):
        return {key: shape(item) for key, item in value.items()}
    if isinstance(value, list):
        return sorted({json.dumps(shape(item), sort_keys=True)
                       for item in value})
    return type(value).__name__


def test_records_keep_the_shape_of_bench_20(tmp_path, monkeypatch):
    # A fake child in place of each process the jobs start: it writes the
    # --out directory's metrics.csv and prints what the real child prints.
    record = tool("bench_record")
    started = []

    def timed(checkout, *argv, check=True):
        started.append(argv)
        if "--out" in argv:
            out = Path(argv[argv.index("--out") + 1])
            out.mkdir()
            (out / "metrics.csv").write_text("row\n")
        return 0, 2.5, 35.0, "suite 0.9s = 1.3x the 0.7s floor (budget 2.0x)\n"

    monkeypatch.setattr(record, "timed", timed)
    checkouts = {"change": tmp_path / "c", "baseline": tmp_path / "b"}
    built = {"sweep_10_seeds": record.sweep_record(checkouts)}
    # One child per sweep: no host control runs beside it.
    assert len(started) == record.REPEATS * len(checkouts)
    built.update({
        "criterion_1": record.paired(checkouts, record.CRITERION_1_RUNS,
                                     record.criterion_1_run),
        "n9_one_seed": record.columns(
            record.paired(checkouts, record.N9_ONE_SEED_RUNS,
                          record.n9_one_seed_run), checkouts)})
    bench_20 = json.loads((ROOT / "BENCH_20.json").read_text())
    # The sweep record has dropped its per-run control and worker count.
    for name in checkouts:
        for key in ("workers", "control_s", "wall_per_control"):
            del bench_20["sweep_10_seeds"][name][key]
    for key, value in built.items():
        assert shape(json.loads(json.dumps(value))) == shape(bench_20[key])


def test_the_environment_names_the_blas_core(tmp_path, monkeypatch):
    # The snapshot reads the core in a child with the checkout's sources,
    # as the suite reads it, so a snapshot taken under Haswell says so.
    record = tool("bench_record")
    assert record.blas_core(ROOT) == blas_core()
    started = []

    def timed(checkout, *argv, check=True):
        started.append((checkout, argv))
        return 0, 0.4, 30.0, "Haswell\n"

    monkeypatch.setattr(record, "timed", timed)
    assert record.blas_core(tmp_path) == "Haswell"
    assert started == [(tmp_path, ("-c", record.BLAS_CORE))]


def git_checkout(path):
    """A git repository at ``path`` with one commit of a checkout's files."""
    (path / "perfbench").mkdir(parents=True)
    (path / "perfbench" / "run.py").write_text("")
    (path / "BENCHMARK.json").write_text('{"run_seconds": 1}')
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@t", "-c",
           "commit.gpgsign=false"]
    for argv in (["init", "-q"], ["add", "-A"], ["commit", "-qm", "x"]):
        subprocess.run(git + argv, cwd=path, check=True)
    return subprocess.run(["git", "rev-parse", "HEAD"], cwd=path, check=True,
                          capture_output=True, text=True).stdout.strip()


def test_clean_commit_is_the_commit_of_a_clean_checkout(tmp_path):
    clean_commit = tool("bench_record").clean_commit
    commit = git_checkout(tmp_path)
    assert len(commit) == 40
    assert clean_commit(tmp_path) == commit
    (tmp_path / "BENCHMARK.json").write_text("{}")
    assert clean_commit(tmp_path) == ""


def test_a_modified_baseline_is_refused_before_anything_runs(
        tmp_path, monkeypatch, capsys):
    record = tool("bench_record")
    started = []
    monkeypatch.setattr(record, "timed", lambda *a, **k: started.append(a))
    monkeypatch.setattr(record, "perfbench",
                        lambda *a, **k: started.append(a))
    git_checkout(tmp_path / "change")
    git_checkout(tmp_path / "baseline")
    (tmp_path / "baseline" / "perfbench" / "run.py").write_text("edit")
    monkeypatch.chdir(tmp_path / "change")
    with pytest.raises(SystemExit) as exit_:
        record.main(["--out", str(tmp_path / "snapshot.json"),
                     "--baseline", str(tmp_path / "baseline")])
    assert exit_.value.code == 2
    assert "commit each checkout's tree first" in capsys.readouterr().err
    assert started == []
    assert not (tmp_path / "snapshot.json").exists()
