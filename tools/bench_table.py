"""Print one row per benchmark snapshot, raw and normalised by the host.

    python3 tools/bench_table.py

Stdlib only. It reads every ``BENCH_*.json`` at the root of the
checkout, in snapshot order. Each row holds the snapshot's commit; the
scored ``sweep`` and ``long_run`` ``wall_s``, ``steps_per_s``,
``setup_s`` and ``peak_rss_mb``; the median of its default 10-seed
``sweep`` runs; the median criterion-1 ``zgemm`` floor; each wall time
divided by that floor; each scored ``wall_s`` divided by the mean of
the controls timed before and after its run (``sweep/control``,
``long_run/control``); criterion 1's median cost ratio with its
passed/total runs, such as ``1.52(5/5)``, so a red criterion 1 shows in
the table; the median wall time of the one-seed nine-qubit ``run``
(``n9x1.median_s``); and the total line count and code line count of
the ``src/spinqrc`` modules (``src_lines``, ``src_code_lines``). The
floor is a fixed amount of BLAS work timed on the same host, so the
divided values compare snapshots taken on days the host ran at
different speeds. A value the snapshot lacks prints as ``-``.
"""
from __future__ import annotations

import json
import re
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCORED = ("sweep", "long_run")
SCORED_METRICS = (("wall_s", "{:.3f}"), ("steps_per_s", "{:.0f}"),
                  ("setup_s", "{:.3f}"), ("peak_rss_mb", "{:.1f}"))


def _get(data, *keys):
    """``data[k1][k2]...``, or None where a key is missing."""
    for key in keys:
        if not isinstance(data, dict) or key not in data:
            return None
        data = data[key]
    return data


def _fmt(value, spec: str) -> str:
    return "-" if value is None else spec.format(value)


def _snapshot_number(path: Path) -> tuple:
    match = re.search(r"(\d+)", path.stem)
    return (int(match.group(1)) if match else -1, path.name)


def columns(snapshot: dict) -> list[tuple[str, str]]:
    """(header, cell) of each column of one snapshot's row."""
    commit = _get(snapshot, "environment", "commit")
    cells = [("commit", commit[:10] if commit else "-")]
    walls, per_control = [], []
    for workload in SCORED:
        for name, spec in SCORED_METRICS:
            value = _get(snapshot, "scored", workload, "metrics", name, "value")
            cells.append((f"{workload}.{name}", _fmt(value, spec)))
        wall = _get(snapshot, "scored", workload, "metrics", "wall_s", "value")
        walls.append((f"{workload}/floor", wall))
        controls = _get(snapshot, "scored", workload, "control_s")
        per_control.append((f"{workload}/control",
                            wall / statistics.mean(controls)
                            if wall is not None and controls else None))
    median = _get(snapshot, "sweep_10_seeds", "change", "median_s")
    cells.append(("sweep10.median_s", _fmt(median, "{:.3f}")))
    walls.append(("sweep10/floor", median))
    runs = _get(snapshot, "criterion_1", "change") or []
    floors = [run["floor_s"] for run in runs if run.get("floor_s") is not None]
    floor = statistics.median(floors) if floors else None
    cells.append(("floor_s", _fmt(floor, "{:.3f}")))
    for header, wall in walls:
        ratio = wall / floor if wall is not None and floor else None
        cells.append((header, _fmt(ratio, "{:.2f}")))
    cells += [(header, _fmt(ratio, "{:.2f}")) for header, ratio in per_control]
    ratios = [run["ratio"] for run in runs if run.get("ratio") is not None]
    passed = sum(run.get("passed") is True for run in runs)
    cells.append(("crit1.ratio(passed)",
                  f"{statistics.median(ratios):.2f}({passed}/{len(runs)})"
                  if ratios else "-"))
    cells.append(("n9x1.median_s",
                  _fmt(_get(snapshot, "n9_one_seed", "change", "median_s"),
                       "{:.3f}")))
    for key in ("src_lines", "src_code_lines"):
        lines = _get(snapshot, "environment", key)
        cells.append((key, _fmt(sum(lines.values()) if lines else None, "{}")))
    return cells


def main() -> int:
    paths = sorted(ROOT.glob("BENCH_*.json"), key=_snapshot_number)
    rows = [[("snapshot", path.stem)] + columns(json.loads(path.read_text()))
            for path in paths]
    if not rows:
        print("no BENCH_*.json snapshots found")
        return 1
    table = [[header for header, _ in rows[0]]]
    table += [[cell for _, cell in row] for row in rows]
    widths = [max(len(line[i]) for line in table) for i in range(len(table[0]))]
    for line in table:
        print("  ".join(cell.rjust(width) for cell, width in zip(line, widths)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
