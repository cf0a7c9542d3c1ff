"""Record one benchmark snapshot of this checkout as a JSON file.

    python3 tools/bench_record.py --out BENCH_<n>.json [--baseline DIR]

Run from the root of a checkout. Stdlib only. The snapshot holds

* ``scored``: the last JSON line of ``perfbench/run.py`` for the scored
  ``sweep`` and ``long_run`` workloads (end-to-end metrics), each with
  ``control_s``, the seconds of the host control (``CONTROL``) run just
  before and just after it in fresh processes;
* ``traced``: the same for one ``--trace 1`` run of ``sweep`` (per-layer
  metrics);
* ``sweep_10_seeds``: wall times and peak RSS of ``REPEATS`` default
  10-seed ``spinqrc sweep`` runs (the ``--seeds`` default), each in a
  fresh process, with the number of worker processes it used (forks
  counted with ``os.register_at_fork``, plus the process itself). The
  peak RSS is ``os.wait4``'s ``ru_maxrss``: that of the largest process
  of the job, the sweep's own or one of its workers. With
  ``--baseline`` (another checkout, for example the parent commit) the
  same job alternates between the two checkouts and the record says
  whether their ``metrics.csv`` bytes agree. Each sweep is followed by
  the host control (``CONTROL``) in a fresh process of this checkout; the
  record keeps its seconds and each wall time divided by them;
* ``criterion_1``: ``CRITERION_1_RUNS`` runs of the acceptance suite's
  criterion 1 (``pytest -s``, each in a fresh process, alternating with
  the ``--baseline`` checkout when one is given): the ratio of its wall
  time to its ``zgemm`` floor, the floor and whether it passed. A failing
  run is recorded like a passing one;
* ``n9_reproducibility``: per checkout, one short nine-qubit
  ``spinqrc run --seeds 2`` at ``OPENBLAS_NUM_THREADS=1`` and at ``=2``,
  their wall times, and whether the two ``metrics.csv`` files are
  identical (OpenBLAS rounds a two-thread product differently);
* ``n9_one_seed``: wall times of ``N9_ONE_SEED_RUNS`` one-seed runs of the
  same nine-qubit ``run --task narma2`` per checkout, each in a fresh
  process in the default thread environment, alternating with the
  ``--baseline`` checkout when one is given, their median, and whether
  the checkouts' ``metrics.csv`` bytes agree. One draw is one group, so
  the run uses one worker process: unlike the two-seed runs, whose draws
  fill both CPUs of a 2-CPU host, it shows a change that spreads one
  trajectory's work over CPUs;
* ``environment``: perfbench's environment block (interpreter, numpy,
  scipy, BLAS libraries and thread counts, CPU counts), plus the CPU
  model, the commit, the git tree hash of ``src/`` and the line count of
  each ``src/spinqrc`` module (``src_lines``).

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
import re
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

CRITERION_1 = "tests/test_acceptance.py::test_criterion_1_exactness"
CRITERION_1_RUNS = 5
# The cost line criterion 1 prints, and repeats in its assertion message.
CRITERION_1_COST = re.compile(
    r"suite ([0-9.]+)s = ([0-9.]+)x the ([0-9.]+)s .*\(budget ([0-9.]+)x\)")

# The host control: a fixed amount of BLAS work, timed next to each scored
# run and each 10-seed sweep so that snapshots taken while the host ran at
# different speeds compare. It is criterion 1's floor, ``zgemm_floor`` in
# the acceptance suite: the best of 3 timings of 10,000 pairs of the
# kernel's two dim-64 products at one BLAS thread. It prints its seconds.
CONTROL = """\
import sys
sys.path.insert(0, "tests")
from test_acceptance import zgemm_floor
print(zgemm_floor())
"""

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


def checkout_env(checkout: Path) -> dict[str, str]:
    """The caller's environment with ``checkout``'s sources on the path
    and no BLAS thread-count override."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env["PYTHONPATH"] = str(checkout / "src")
    return env


def criterion_1_run(checkout: Path) -> dict:
    """Cost ratio, floor and outcome of one criterion-1 run; the numbers
    are None when the run failed before printing its cost."""
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-s", "-p", "no:cacheprovider",
         CRITERION_1], cwd=checkout, env=checkout_env(checkout),
        capture_output=True, text=True)
    cost = CRITERION_1_COST.search(done.stdout)
    suite_s, ratio, floor_s, budget = (map(float, cost.groups()) if cost
                                       else (None,) * 4)
    return {"passed": done.returncode == 0, "ratio": ratio,
            "floor_s": floor_s, "suite_s": suite_s, "budget": budget}


def criterion_1_record(checkouts: dict[str, Path]) -> dict:
    record = {name: [] for name in checkouts}
    for _ in range(CRITERION_1_RUNS):
        for name, checkout in checkouts.items():
            record[name].append(criterion_1_run(checkout))
    return record


# A nine-qubit config short enough for a snapshot: 70 steps per seed.
N9_CONFIG = {"n_qubits": 9, "n_pre": 30, "n_fb": 30, "n_test": 10}


def n9_run(checkout: Path, config: Path, seeds: int, out: Path,
           env: dict[str, str]) -> float:
    """Wall seconds of one nine-qubit ``run --task narma2``."""
    started = time.perf_counter()
    subprocess.run(
        [sys.executable, "-m", "spinqrc.cli", "run", "--config", str(config),
         "--seeds", str(seeds), "--task", "narma2", "--out", str(out)],
        cwd=checkout, env=env, capture_output=True, check=True)
    return round(time.perf_counter() - started, 3)


def n9_record(checkouts: dict[str, Path]) -> dict:
    record = {}
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "n9.json"
        config.write_text(json.dumps(N9_CONFIG))
        for name, checkout in checkouts.items():
            entry = record[name] = {"wall_s": {}}
            outputs = set()
            for threads in ("1", "2"):
                out = Path(tmp) / f"{name}{threads}"
                env = dict(checkout_env(checkout), OPENBLAS_NUM_THREADS=threads)
                entry["wall_s"][threads] = n9_run(checkout, config, 2, out,
                                                  env)
                outputs.add((out / "metrics.csv").read_bytes())
            entry["metrics_csv_identical"] = len(outputs) == 1
    return record


N9_ONE_SEED_RUNS = 5


def n9_one_seed_record(checkouts: dict[str, Path]) -> dict:
    record = {name: {"wall_s": []} for name in checkouts}
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "n9.json"
        config.write_text(json.dumps(N9_CONFIG))
        outputs = {}
        for i in range(N9_ONE_SEED_RUNS):
            for name, checkout in checkouts.items():
                out = Path(tmp) / f"{name}{i}"
                record[name]["wall_s"].append(
                    n9_run(checkout, config, 1, out, checkout_env(checkout)))
                outputs.setdefault(name, (out / "metrics.csv").read_bytes())
    for entry in record.values():
        entry["median_s"] = statistics.median(entry["wall_s"])
    if len(outputs) > 1:
        record["metrics_csv_identical"] = len(set(outputs.values())) == 1
    return record


def timed_sweep(checkout: Path, out: Path) -> tuple[float, float, int]:
    """Wall seconds, peak RSS in MB and worker processes of one default
    10-seed sweep."""
    argv = [sys.executable, "-c", COUNT_FORKS, "sweep", "--out", str(out)]
    started = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=checkout, env=checkout_env(checkout),
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                            text=True)
    with proc.stderr:
        stderr = proc.stderr.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode:
        raise subprocess.CalledProcessError(proc.returncode, argv,
                                            stderr=stderr)
    forks = int(stderr.strip().splitlines()[-1].removeprefix("forks="))
    return wall, usage.ru_maxrss / 1024.0, forks + 1


def timed_control(root: Path) -> float:
    """Seconds of one ``CONTROL`` run with ``root``'s sources."""
    done = subprocess.run([sys.executable, "-c", CONTROL], cwd=root,
                          env=checkout_env(root), capture_output=True,
                          text=True, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def scored_run(root: Path, workload: str, seconds: float) -> dict:
    """One scored perfbench run, with the control timed before and after
    it as ``control_s``."""
    before = timed_control(root)
    run = perfbench(root, workload, seconds, 0)
    run["control_s"] = [round(before, 4), round(timed_control(root), 4)]
    return run


def sweep_record(checkouts: dict[str, Path], root: Path) -> dict:
    """The 10-seed sweeps of each checkout, alternating, each followed by
    the control in ``root``, the same code for every checkout."""
    record = {name: {"wall_s": [], "peak_rss_mb": [], "workers": set(),
                     "control_s": [], "wall_per_control": []}
              for name in checkouts}
    with tempfile.TemporaryDirectory() as tmp:
        outputs = {}
        for i in range(REPEATS):
            for name, checkout in checkouts.items():
                out = Path(tmp) / f"{name}{i}"
                wall, rss, workers = timed_sweep(checkout, out)
                control = timed_control(root)
                record[name]["wall_s"].append(round(wall, 3))
                record[name]["control_s"].append(round(control, 4))
                record[name]["wall_per_control"].append(
                    round(wall / control, 3))
                record[name]["peak_rss_mb"].append(round(rss, 2))
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

    scored = {w: scored_run(root, w, seconds) for w in ("sweep", "long_run")}
    traced = perfbench(root, "sweep", seconds, 1)
    checkouts = {"change": root}
    if args.baseline is not None:
        checkouts["baseline"] = args.baseline.resolve()
    snapshot = {
        "environment": {**scored["sweep"].pop("environment"),
                        "cpu": cpu_model(), "machine": platform.machine(),
                        "commit": commit,
                        "src_tree": git(root, "rev-parse", "HEAD:src"),
                        "src_lines": {
                            path.name: len(path.read_text().splitlines())
                            for path in sorted(
                                (root / "src" / "spinqrc").glob("*.py"))}},
        "scored": scored,
        "traced": traced,
        "sweep_10_seeds": sweep_record(checkouts, root),
        "criterion_1": criterion_1_record(checkouts),
        "n9_reproducibility": n9_record(checkouts),
        "n9_one_seed": n9_one_seed_record(checkouts),
    }
    for run in (scored["long_run"], traced):
        run.pop("environment", None)
    args.out.write_text(json.dumps(snapshot, indent=2, sort_keys=True) + "\n")
    print(args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
