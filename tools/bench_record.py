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
  fresh process, and their median. The peak RSS is that of the largest
  process of the job, the sweep's own or one of its workers;
* ``criterion_1``: ``CRITERION_1_RUNS`` runs of the acceptance suite's
  criterion 1 (``pytest -s``, each in a fresh process): the ratio of its
  wall time to its ``zgemm`` floor, the floor and whether it passed. A
  failing run is recorded like a passing one;
* ``n9_one_seed``: wall times of ``N9_ONE_SEED_RUNS`` one-seed runs of a
  short nine-qubit ``run --task narma2``, each in a fresh process in the
  default thread environment, and their median. One draw is one group,
  so the run uses one worker process: unlike a two-seed run, whose draws
  fill both CPUs of a 2-CPU host, it shows a change that spreads one
  trajectory's work over CPUs;
* ``environment``: perfbench's environment block (interpreter, numpy,
  scipy, BLAS libraries and thread counts, CPU counts), plus the kernel
  core of the evolution kernel's OpenBLAS (``blas_core``, such as
  ``SkylakeX``), the CPU model, the commit, the git tree hash of
  ``src/``, and each ``src/spinqrc`` module's line count (``src_lines``)
  and code line count (``src_code_lines``, by ``code_lines``).

Each of the 10-seed, criterion-1 and nine-qubit records keeps this
checkout's runs under ``change``. With ``--baseline`` (another checkout,
for example the parent commit) those jobs alternate between the two
checkouts (``paired``), each record gains a ``baseline`` entry, the
10-seed and nine-qubit records say whether the two checkouts'
``metrics.csv`` bytes agree (``metrics_csv_identical``), and
``environment`` adds the baseline's commit (``baseline_commit``).

perfbench runs at ``SEED`` for BENCHMARK.json's ``run_seconds``, so a
snapshot is comparable with the benchmark and with other snapshots. The
tool refuses a checkout, this one or the baseline, whose tracked files
differ from its commit, so each recorded commit is the code that was
measured. Snapshots are never edited: a later change records a new file.
"""
from __future__ import annotations

import argparse
import ast
import io
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
import tokenize
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

# The host control: a fixed amount of BLAS work, timed before and after each
# scored run so that snapshots taken while the host ran at different speeds
# compare. It is criterion 1's floor, ``zgemm_floor`` in the acceptance
# suite: the best of 3 timings of 10,000 pairs of the kernel's two dim-64
# products at one BLAS thread. It prints its seconds.
CONTROL = """\
import sys
sys.path.insert(0, "tests")
from test_acceptance import zgemm_floor
print(zgemm_floor())
"""

# The kernel core of the BLAS the evolution kernel calls, as a fresh
# process of the checkout reads it (``linalg.kernel_blas``); the goldens'
# bits depend on it. It prints the name, or None where the library does
# not say.
BLAS_CORE = """\
from spinqrc.linalg import kernel_blas
print(kernel_blas().core)
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


def timed(checkout: Path, *argv: str,
          check: bool = True) -> tuple[int, float, float, str]:
    """Exit code, wall seconds, peak RSS in MB and stdout of one
    ``python argv`` child run in ``checkout`` with its sources and no BLAS
    thread-count override. The peak RSS is ``os.wait4``'s ``ru_maxrss``:
    that of the largest process of the job, the child or one it forked.
    With ``check``, a failed child raises ``CalledProcessError``."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env["PYTHONPATH"] = str(checkout / "src")
    started = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *argv], cwd=checkout, env=env,
                            stdout=subprocess.PIPE, text=True)
    with proc.stdout:
        stdout = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    if check and proc.returncode:
        raise subprocess.CalledProcessError(proc.returncode, argv, stdout)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0, stdout


def paired(checkouts: dict[str, Path], runs: int, job) -> dict:
    """``runs`` rounds of ``job(checkout, out)``, each round running every
    checkout once, in turn, with ``out`` a fresh path in one temporary
    directory: each checkout's results in run order, and, when more than
    one checkout's first run wrote ``out/metrics.csv``, whether those
    files are byte-identical (``metrics_csv_identical``)."""
    record = {name: [] for name in checkouts}
    with tempfile.TemporaryDirectory() as tmp:
        for i in range(runs):
            for name, checkout in checkouts.items():
                record[name].append(job(checkout, Path(tmp) / f"{name}{i}"))
        firsts = [Path(tmp) / f"{name}0" / "metrics.csv" for name in checkouts]
        outputs = [path.read_bytes() for path in firsts if path.is_file()]
    if len(outputs) > 1:
        record["metrics_csv_identical"] = len(set(outputs)) == 1
    return record


def control(root: Path) -> float:
    """Seconds of one ``CONTROL`` run with ``root``'s sources."""
    return float(timed(root, "-c", CONTROL)[3].split()[-1])


def blas_core(root: Path) -> str:
    """The name ``BLAS_CORE`` prints in a child run with ``root``'s
    sources."""
    return timed(root, "-c", BLAS_CORE)[3].split()[-1]


def scored_run(root: Path, workload: str, seconds: float) -> dict:
    """One scored perfbench run, with the control timed before and after
    it as ``control_s``."""
    before = control(root)
    run = perfbench(root, workload, seconds, 0)
    run["control_s"] = [round(before, 4), round(control(root), 4)]
    return run


def columns(record: dict, checkouts: dict[str, Path]) -> dict:
    """``paired``'s ``record`` with each checkout's runs turned into each
    key's values, in run order, and the median of their ``wall_s``."""
    for name in checkouts:
        runs = record[name]
        record[name] = {key: [run[key] for run in runs] for key in runs[0]}
        record[name]["median_s"] = statistics.median(record[name]["wall_s"])
    return record


def sweep_record(checkouts: dict[str, Path]) -> dict:
    """The 10-seed sweeps of each checkout, alternating."""
    def job(checkout: Path, out: Path) -> dict:
        _, wall, rss, _ = timed(checkout, "-m", "spinqrc.cli", "sweep",
                                "--out", str(out))
        return {"wall_s": round(wall, 3), "peak_rss_mb": round(rss, 2)}

    return columns(paired(checkouts, REPEATS, job), checkouts)


def criterion_1_run(checkout: Path, out: Path) -> dict:
    """Cost ratio, floor and outcome of one criterion-1 run; the numbers
    are None when the run failed before printing its cost."""
    code, _, _, stdout = timed(checkout, "-m", "pytest", "-q", "-s", "-p",
                               "no:cacheprovider", CRITERION_1, check=False)
    cost = CRITERION_1_COST.search(stdout)
    values = map(float, cost.groups()) if cost else (None,) * 4
    return {"passed": code == 0,
            **dict(zip(("suite_s", "ratio", "floor_s", "budget"), values))}


# A nine-qubit config short enough for a snapshot: 70 steps per seed.
N9_CONFIG = {"n_qubits": 9, "n_pre": 30, "n_fb": 30, "n_test": 10}
N9_ONE_SEED_RUNS = 5


def n9_one_seed_run(checkout: Path, out: Path) -> dict:
    """Wall seconds of one one-seed nine-qubit ``run --task narma2``."""
    config = out.parent / "n9.json"
    config.write_text(json.dumps(N9_CONFIG))
    _, wall, _, _ = timed(checkout, "-m", "spinqrc.cli", "run", "--config",
                          str(config), "--seeds", "1", "--task", "narma2",
                          "--out", str(out))
    return {"wall_s": round(wall, 3)}


def code_lines(source: str) -> int:
    """The lines of Python ``source`` that hold code: not blank, not a
    comment and not inside a docstring. Every line of any other string
    literal is code."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                              ast.AsyncFunctionDef))
                and ast.get_docstring(node, clean=False) is not None):
            docstrings.update(range(node.body[0].lineno,
                                    node.body[0].end_lineno + 1))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
                              tokenize.INDENT, tokenize.DEDENT,
                              tokenize.ENDMARKER):
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


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


def clean_commit(checkout: Path) -> str:
    """The commit of ``checkout``, or "" when it is no git checkout or its
    tracked files differ from that commit."""
    dirty = git(checkout, "status", "--porcelain", "--untracked-files=no")
    return "" if dirty else git(checkout, "rev-parse", "HEAD")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--baseline", type=Path,
                        help="another checkout to time the 10-seed sweep in")
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "perfbench" / "run.py").is_file():
        parser.error("run from the root of a checkout")
    checkouts = {"change": root}
    if args.baseline is not None:
        checkouts["baseline"] = args.baseline.resolve()
    commits = {key: clean_commit(checkout) for key, checkout
               in zip(("commit", "baseline_commit"), checkouts.values())}
    if not all(commits.values()):
        parser.error("commit each checkout's tree first: a snapshot names "
                     "the commits it measured")
    seconds = json.loads((root / "BENCHMARK.json").read_text())["run_seconds"]

    scored = {w: scored_run(root, w, seconds) for w in ("sweep", "long_run")}
    traced = perfbench(root, "sweep", seconds, 1)
    sources = {path.name: path.read_text()
               for path in sorted((root / "src" / "spinqrc").glob("*.py"))}
    snapshot = {
        "environment": {**scored["sweep"].pop("environment"),
                        "blas_core": blas_core(root), "cpu": cpu_model(),
                        "machine": platform.machine(),
                        **commits,
                        "src_tree": git(root, "rev-parse", "HEAD:src"),
                        "src_lines": {name: len(text.splitlines())
                                      for name, text in sources.items()},
                        "src_code_lines": {name: code_lines(text)
                                           for name, text in sources.items()}},
        "scored": scored,
        "traced": traced,
        "sweep_10_seeds": sweep_record(checkouts),
        "criterion_1": paired(checkouts, CRITERION_1_RUNS, criterion_1_run),
        "n9_one_seed": columns(
            paired(checkouts, N9_ONE_SEED_RUNS, n9_one_seed_run), checkouts),
    }
    for run in (scored["long_run"], traced):
        run.pop("environment", None)
    args.out.write_text(json.dumps(snapshot, indent=2, sort_keys=True) + "\n")
    print(args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
