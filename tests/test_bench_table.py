import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_one_row_per_committed_snapshot():
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "bench_table.py")],
                          capture_output=True, text=True, check=True)
    header, *rows = [line.split() for line in done.stdout.splitlines()]
    snapshots = sorted(path.stem for path in ROOT.glob("BENCH_*.json"))
    assert sorted(row[0] for row in rows) == snapshots
    assert all(len(row) == len(header) for row in rows)
    normalised = [header.index(name) for name in
                  ("floor_s", "sweep/floor", "long_run/floor", "sweep10/floor")]
    for row in rows:
        # BENCH_6 predates the criterion-1 record, so it has no floor.
        missing = {row[i] for i in normalised} == {"-"}
        assert missing == (row[0] == "BENCH_6")
