"""spinqrc benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the program is imported from ``src/``.
Every job runs in a fresh child process, one after another (a closed loop
with one client). Scored runs remove the BLAS thread variables from the
children's environment, so they measure the program's own thread policy.
Outputs are checked against frozen goldens (CLI jobs) or against the
dense reference in reference.py (long_run); a nonzero exit or a
mismatch counts as a failed job. A run times a fixed number of passing
jobs and reports the fastest of them.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` they are per-layer numbers from spans
recorded around spinqrc's public functions, repeated at one BLAS thread
under a ``.t1`` suffix, plus a traced ``spinqrc esn`` job for the ESN
layer and a qubit-count scan. The line before it holds
the environment block (interpreter, numpy/scipy, BLAS and thread counts).
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracer
from job import drive

HERE = Path(__file__).resolve().parent
GOLDENS = HERE / "goldens"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Seed s of a CLI job runs ensemble base seed s % GOLDEN_SEEDS, whose
# metrics.csv is frozen under goldens/<job>_seed<B>.csv. HELD_OUT_SEED has
# a golden too but is never chosen by a run; the self-tests check it.
GOLDEN_SEEDS = 10
HELD_OUT_SEED = 10

SETUP_SAMPLES = 9
Z_TOL = 1e-12

# The CLI jobs: ``sweep`` is a workload; ``esn`` (ESN1/3/5 x 5 tasks x 40
# seeds x 440 steps) runs only in traced runs, for the ESN layer.
CLI_JOBS = {"sweep": ["sweep", "--seeds", "1"], "esn": ["esn", "--seeds", "40"]}

# Why each workload exists: perfbench/README.md. ``steps`` counts the
# reservoir steps a job asks for, which is what steps_per_s divides. ``jobs`` is the fixed number of passing jobs
# whose fastest a run reports, so the statistic does not depend on how
# many jobs fit into ``--seconds``. On a shared 2-vCPU host single job
# times spread 10-40% (long_run's two BLAS threads spread most), and the
# fastest of several spreads far less between runs (README.md). Each job is sized so
# that its named work, not interpreter start-up (about 0.5 s), dominates
# its wall time.
WORKLOADS = {
    # 2 topologies x 2 gammas x 2 readouts x 6 tasks x 1 seed x 440 steps.
    "sweep": {"kind": "cli", "steps": 8 * 6 * 440, "jobs": 5},
    "long_run": {"kind": "trajectory", "n_qubits": 6, "topology": "linear",
                 "gamma": 0.1, "steps": 20_000, "check_prefix": 1000,
                 "jobs": 10},
}

TRAJECTORY_KEYS = ("n_qubits", "topology", "gamma", "steps")

END_TO_END = {"setup_s": "s", "wall_s": "s", "evals_per_s": "1/s",
              "steps_per_s": "1/s", "peak_rss_mb": "MB"}

# (n_qubits, steps) of the traced qubit scan; steps shrink as a step's
# cost grows so every size takes well under a second per step count.
SCAN_SIZES = ((2, 400), (3, 400), (4, 400), (5, 400), (6, 400), (7, 100),
              (8, 40), (9, 8), (10, 3))

LAYER_UNITS = {
    "reservoir.evolve.calls": "count", "reservoir.evolve.useful_ratio": "ratio",
    "reservoir.evolve.self_s": "s", "reservoir.evolve.us_per_step": "us",
    "reservoir.evolve.call_ms.p50": "ms", "reservoir.evolve.call_ms.p90": "ms",
    "reservoir.evolve.call_ms.samples": "count",
    "reservoir.build.calls": "count", "reservoir.build.useful_ratio": "ratio",
    "reservoir.build.self_s": "s", "reservoir.build.hamiltonian_s": "s",
    "linalg.unitary_exp_s": "s",
    "readout.fit.calls": "count", "readout.fit.self_s": "s",
    "readout.fit.us_per_call": "us", "readout.other.self_s": "s",
    "tasks.calls": "count", "tasks.self_s": "s",
    "esn.calls": "count", "esn.self_s": "s", "esn.us_per_step": "us",
    "experiment.loop.self_s": "s", "experiment.report.self_s": "s",
    "experiment.report.bytes": "B", "cli.self_s": "s",
}
SCAN_UNITS = {**{f"reservoir.evolve.us_per_step.n{n}": "us" for n, _ in SCAN_SIZES},
              **{f"reservoir.build_s.n{n}": "s" for n in tracer.SCAN_BUILD_SIZES}}
PER_LAYER = {**LAYER_UNITS, **SCAN_UNITS,
             **{f"{k}.t1": u for k, u in {**LAYER_UNITS, **SCAN_UNITS}.items()},
             "trace.overhead_ratio": "ratio", "trace.absent": "count",
             "fail_ratio": "ratio"}


class SetupError(Exception):
    """The checkout cannot be benchmarked (no program to run)."""


@dataclass
class Job:
    ok: bool
    wall_s: float
    rss_mb: float
    result: dict = field(default_factory=dict)
    output: Path | None = None
    golden: Path | None = None


class Bench:
    def __init__(self, root: Path, workload: str, seed: int):
        self.root = root
        self.src = root / "src"
        if not (self.src / "spinqrc" / "__init__.py").is_file():
            raise SetupError(f"no spinqrc package under {self.src}")
        self.name = workload
        self.spec = WORKLOADS[workload]
        self.seed = seed
        self.work = root / ".perfbench_work" / f"{workload}-{os.getpid()}"
        self.jobs = 0

    def env(self, threads: int | None = None) -> dict:
        env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
        env["PYTHONPATH"] = str(self.src)
        if threads is not None:
            env.update({k: str(threads) for k in BLAS_THREAD_VARS})
        return env

    def spawn(self, argv: list[str], env: dict) -> tuple[int, float, float]:
        """Run a child to completion: (exit code, wall s, peak RSS MB)."""
        started = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=self.root, env=env,
                                stdout=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_maxrss / 1024.0

    def run_job(self, env: dict, trace: bool = False, kind: str | None = None,
                cli: str | None = None, **extra) -> Job:
        """One job of this workload (or of ``kind``, or the CLI job ``cli``)
        in a fresh process."""
        self.jobs += 1
        out = self.work / f"job{self.jobs}"
        out.mkdir(parents=True)
        kind = "cli" if cli else kind or self.spec["kind"]
        spec = {"kind": kind, "src": str(self.src), "trace": trace, **extra}
        golden = None
        if kind == "cli":
            cli = cli or self.name
            spec["argv"] = cli_argv(cli, self.cli_seed, out)
            output = out / "metrics.csv"
            golden = golden_path(cli, self.cli_seed)
        elif kind == "trajectory":
            spec.update({k: self.spec[k] for k in TRAJECTORY_KEYS},
                        seed=self.trajectory_seed, z_path=str(out / "z.npy"))
            output = out / "z.npy"
        else:
            output = None
        result_path = out / "result.json"
        if kind == "cli" and not trace:
            argv = [sys.executable, "-m", "spinqrc.cli", *spec["argv"]]
        else:
            argv = [sys.executable, str(HERE / "job.py"), json.dumps(spec),
                    str(result_path)]
        code, wall, rss = self.spawn(argv, env)
        result = {}
        if result_path.is_file():
            result = json.loads(result_path.read_text())
        return Job(ok=code == 0, wall_s=wall, rss_mb=rss, result=result,
                   output=output, golden=golden)

    @property
    def cli_seed(self) -> int:
        return self.seed % GOLDEN_SEEDS

    @property
    def trajectory_seed(self) -> int:
        return self.seed % 2**32

    def check(self, jobs: list[Job]) -> None:
        """Clear ``ok`` on every job whose output is wrong."""
        import numpy as np

        import reference

        first = None
        for job in jobs:
            if not (job.ok and job.output.is_file()):
                job.ok = False
                continue
            if job.golden is not None:
                job.ok = job.output.read_bytes() == job.golden.read_bytes()
                continue
            z = np.load(job.output)
            if first is None:
                steps = self.spec["check_prefix"]
                expected = reference.z_rows(
                    self.spec["n_qubits"], self.spec["topology"],
                    self.spec["gamma"], self.trajectory_seed,
                    drive(self.trajectory_seed, self.spec["steps"])[:steps])
                job.ok = (z.shape == (self.spec["steps"], self.spec["n_qubits"])
                          and bool(np.all(np.abs(z) <= 1.0 + 1e-9))
                          and np.abs(z[:steps] - expected).max() <= Z_TOL)
                if job.ok:
                    first = z
            else:
                job.ok = z.shape == first.shape and np.abs(z - first).max() <= Z_TOL

    def setup_s(self) -> tuple[float, int]:
        """Median wall time of a fresh process importing spinqrc and building
        the CLI parser; the first, cold sample is discarded."""
        argv = [sys.executable, "-c",
                "from spinqrc.cli import build_parser; build_parser()"]
        samples, failed = [], 0
        for i in range(SETUP_SAMPLES + 1):
            code, wall, _ = self.spawn(argv, self.env())
            failed += code != 0
            if i:
                samples.append(wall)
        return statistics.median(samples), failed

    def environment(self, threads: int | None = None) -> dict:
        job = self.run_job(self.env(threads), kind="env")
        return job.result.get("environment", {})

    def measure(self, seconds: float) -> tuple[dict, int, int]:
        setup, setup_failed = self.setup_s()
        count = self.spec["jobs"]
        jobs = []
        started = time.perf_counter()
        while len(jobs) < count or time.perf_counter() - started < seconds:
            jobs.append(self.run_job(self.env()))
        self.check(jobs)
        timed = timed_jobs(jobs, count)
        wall = min(j.wall_s for j in timed)
        if self.spec["kind"] == "cli":
            evals = _evals(golden_path(self.name, self.cli_seed))
            steps_per_s = self.spec["steps"] / wall
        else:
            evals = self.spec["steps"]
            evolve = [j.result["evolve_s"] for j in timed if "evolve_s" in j.result]
            steps_per_s = self.spec["steps"] / min(evolve) if evolve else 0.0
        metrics = {"setup_s": setup, "wall_s": wall, "evals_per_s": evals / wall,
                   "steps_per_s": steps_per_s,
                   "peak_rss_mb": max(j.rss_mb for j in timed)}
        failed = setup_failed + sum(not j.ok for j in jobs)
        return metrics, SETUP_SAMPLES + 1 + len(jobs), failed

    def traced(self) -> tuple[dict, int, int]:
        plain = self.run_job(self.env())
        default = self.run_job(self.env(), trace=True)
        single = self.run_job(self.env(1), trace=True)
        esns = [self.run_job(self.env(threads), trace=True, cli="esn")
                for threads in (None, 1)]
        self.check([plain, default, single, *esns])
        scans = [self.run_job(self.env(threads), trace=True, kind="scan",
                              sizes=SCAN_SIZES) for threads in (None, 1)]
        jobs = [plain, default, single, *esns, *scans]
        metrics = {}
        for suffix, job, esn, scan in (("", default, esns[0], scans[0]),
                                       (".t1", single, esns[1], scans[1])):
            layers = {**tracer.layer_metrics(job.result.get("spans", [])),
                      **tracer.esn_metrics(esn.result.get("spans", [])),
                      **tracer.scan_metrics(scan.result.get("spans", []))}
            metrics.update({k + suffix: v for k, v in layers.items()})
        failed = sum(not j.ok for j in jobs)
        metrics.update({
            "trace.overhead_ratio": default.wall_s / plain.wall_s,
            "trace.absent": len(default.result.get("absent", [])),
            "fail_ratio": failed / len(jobs)})
        return metrics, len(jobs), failed


def timed_jobs(jobs: list[Job], count: int) -> list[Job]:
    """The first ``count`` jobs that passed their checks: a failed job never
    sets a timing. Falls back to all jobs when none passed, in which case
    the run is reported incorrect anyway."""
    passed = [j for j in jobs if j.ok]
    return (passed or jobs)[:count]


def cli_argv(name: str, base_seed: int, out: Path) -> list[str]:
    return [*CLI_JOBS[name], "--seed", str(base_seed), "--out", str(out)]


def golden_path(name: str, base_seed: int) -> Path:
    return GOLDENS / f"{name}_seed{base_seed}.csv"


def _evals(csv_path: Path) -> int:
    """Scored (row, seed) values in a metrics.csv."""
    rows = csv_path.read_text().splitlines()[1:]
    return sum(int(row.split(",")[4]) for row in rows)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        bench = Bench(Path.cwd(), args.workload, args.seed)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        environment = {"default": bench.environment()}
        if args.trace:
            environment["threads_1"] = bench.environment(1)
            metrics, attempted, failed = bench.traced()
            units = PER_LAYER
        else:
            metrics, attempted, failed = bench.measure(args.seconds)
            units = END_TO_END
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
    missing = sorted(set(units) - set(metrics))
    metrics.update({k: 0.0 for k in missing})
    print(json.dumps({"environment": environment, "absent_metrics": missing}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}),
        flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
