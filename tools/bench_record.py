"""Record one benchmark snapshot of this checkout as a JSON file.

    python3 tools/bench_record.py --out BENCH_<n>.json [--baseline DIR]

Run from the root of a checkout. Stdlib only. The snapshot holds

* ``scored``: the last JSON line of ``perfbench/run.py`` for the scored
  ``sweep`` and ``long_run`` workloads (end-to-end metrics);
* ``traced``: the same for one ``--trace 1`` run of ``sweep`` (per-layer
  metrics);
* ``sweep_10_seeds``: wall times of ``REPEATS`` default 10-seed
  ``spinqrc sweep`` runs (the ``--seeds`` default), each in a fresh
  process, with the number of worker processes it used (forks counted
  with ``os.register_at_fork``, plus the process itself). With
  ``--baseline`` (another checkout, for example the parent commit) the
  same job alternates between the two checkouts and the record says
  whether their ``metrics.csv`` bytes agree;
* ``environment``: perfbench's environment block (interpreter, numpy,
  scipy, BLAS libraries and thread counts, CPU counts), plus the CPU
  model, the commit and the git tree hash of ``src/``.

perfbench runs at ``SEED`` for BENCHMARK.json's ``run_seconds``, so a
snapshot is comparable with the benchmark and with other snapshots. The
tool refuses a checkout whose tracked files differ from its commit, so
the recorded commit is the code that was measured. Snapshots are never
edited: a later change records a new file.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SEED = 0
# Alternating pairs of 10-seed sweeps when a baseline is given.
REPEATS = 10

# Runs the CLI and reports on stderr how many processes it forked.
COUNT_FORKS = """\
import os, sys
forks = [0]
os.register_at_fork(after_in_parent=lambda: forks.__setitem__(0, forks[0] + 1))
from spinqrc.cli import main
code = main(sys.argv[1:])
print(f"forks={forks[0]}", file=sys.stderr)
sys.exit(code)
"""


def perfbench(root: Path, workload: str, seconds: float, trace: int) -> dict:
    """The environment and result lines of one perfbench run."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(SEED), "--seconds", str(seconds),
            "--trace", str(trace)]
    done = subprocess.run(argv, cwd=root, capture_output=True, text=True,
                          check=True)
    environment, result = done.stdout.strip().splitlines()[-2:]
    return {"argv": argv[1:], **json.loads(environment), **json.loads(result)}


def timed_sweep(checkout: Path, out: Path) -> tuple[float, int]:
    """Wall seconds and worker processes of one default 10-seed sweep."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env["PYTHONPATH"] = str(checkout / "src")
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", COUNT_FORKS, "sweep", "--out", str(out)],
        cwd=checkout, env=env, capture_output=True, text=True, check=True)
    wall = time.perf_counter() - started
    forks = int(done.stderr.strip().splitlines()[-1].removeprefix("forks="))
    return wall, forks + 1


def sweep_record(checkouts: dict[str, Path]) -> dict:
    record = {name: {"wall_s": [], "workers": set()} for name in checkouts}
    with tempfile.TemporaryDirectory() as tmp:
        outputs = {}
        for i in range(REPEATS):
            for name, checkout in checkouts.items():
                out = Path(tmp) / f"{name}{i}"
                wall, workers = timed_sweep(checkout, out)
                record[name]["wall_s"].append(round(wall, 3))
                record[name]["workers"].add(workers)
                outputs.setdefault(name, (out / "metrics.csv").read_bytes())
        for entry in record.values():
            entry["median_s"] = statistics.median(entry["wall_s"])
            entry["workers"] = sorted(entry["workers"])
        if len(outputs) > 1:
            record["metrics_csv_identical"] = len(set(outputs.values())) == 1
    return record


def cpu_model() -> str | None:
    try:
        lines = Path("/proc/cpuinfo").read_text().splitlines()
    except OSError:
        return platform.processor() or None
    names = [line.split(":", 1)[1].strip() for line in lines
             if line.startswith("model name")]
    return names[0] if names else None


def git(root: Path, *argv: str) -> str:
    return subprocess.run(["git", *argv], cwd=root, capture_output=True,
                          text=True).stdout.strip()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--baseline", type=Path,
                        help="another checkout to time the 10-seed sweep in")
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "perfbench" / "run.py").is_file():
        parser.error("run from the root of a checkout")
    commit = git(root, "rev-parse", "HEAD")
    if not commit or git(root, "status", "--porcelain", "--untracked-files=no"):
        parser.error("commit the tree first: a snapshot names the commit "
                     "it measured")
    seconds = json.loads((root / "BENCHMARK.json").read_text())["run_seconds"]

    scored = {w: perfbench(root, w, seconds, 0)
              for w in ("sweep", "long_run")}
    traced = perfbench(root, "sweep", seconds, 1)
    checkouts = {"change": root}
    if args.baseline is not None:
        checkouts["baseline"] = args.baseline.resolve()
    snapshot = {
        "environment": {**scored["sweep"].pop("environment"),
                        "cpu": cpu_model(), "machine": platform.machine(),
                        "commit": commit,
                        "src_tree": git(root, "rev-parse", "HEAD:src")},
        "scored": scored,
        "traced": traced,
        "sweep_10_seeds": sweep_record(checkouts),
    }
    for run in (scored["long_run"], traced):
        run.pop("environment", None)
    args.out.write_text(json.dumps(snapshot, indent=2, sort_keys=True) + "\n")
    print(args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
