import importlib.util
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CRITERION_1 = "crit1.ratio(passed)"


def bench_table():
    spec = importlib.util.spec_from_file_location(
        "bench_table", ROOT / "tools" / "bench_table.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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


def test_failed_criterion_1_runs_show_in_their_column():
    columns = bench_table().columns
    runs = [{"ratio": r, "passed": r <= 2.0, "floor_s": 1.0}
            for r in (1.6, 2.1, 2.3)]
    cells = dict(columns({"criterion_1": {"change": runs}}))
    assert cells[CRITERION_1] == "2.10(1/3)"
    assert dict(columns({}))[CRITERION_1] == "-"


def test_sweep_per_control_column():
    columns = bench_table().columns
    snapshot = {"sweep_10_seeds": {"change": {
        "wall_s": [3.0, 3.3, 6.0], "control_s": [1.0, 1.1, 1.5],
        "wall_per_control": [3.0, 3.0, 4.0]}}}
    assert dict(columns(snapshot))["sweep10/control"] == "3.00"
    # Snapshots older than the control have no such record.
    old = {"sweep_10_seeds": {"change": {"wall_s": [3.0]}}}
    assert dict(columns(old))["sweep10/control"] == "-"


def test_one_seed_n9_column():
    columns = bench_table().columns
    snapshot = {"n9_one_seed": {"change": {"wall_s": [1.9, 1.7, 1.8],
                                           "median_s": 1.8},
                                "baseline": {"median_s": 2.5}}}
    assert dict(columns(snapshot))["n9x1.median_s"] == "1.800"
    # Snapshots older than the entry print a dash.
    assert dict(columns({}))["n9x1.median_s"] == "-"


def test_scored_per_control_columns():
    columns = bench_table().columns
    snapshot = {"scored": {
        "sweep": {"metrics": {"wall_s": {"value": 0.5}},
                  "control_s": [0.4, 0.6]},
        "long_run": {"metrics": {"wall_s": {"value": 2.0}},
                     "control_s": [0.8, 0.8]}}}
    cells = dict(columns(snapshot))
    assert (cells["sweep/control"], cells["long_run/control"]) == (
        "1.00", "2.50")
    # Snapshots older than the control beside the scored runs print a dash.
    del snapshot["scored"]["long_run"]["control_s"]
    assert dict(columns(snapshot))["long_run/control"] == "-"
    assert dict(columns({}))["sweep/control"] == "-"


def test_source_lines_column():
    columns = bench_table().columns
    snapshot = {"environment": {"src_lines": {"cli.py": 200,
                                              "experiment.py": 530}}}
    assert dict(columns(snapshot))["src_lines"] == "730"
    # Snapshots older than the count print a dash.
    assert dict(columns({}))["src_lines"] == "-"
    assert dict(columns({"environment": {"commit": "abc"}}))["src_lines"] == "-"
