"""Self-tests of the benchmark. Run from the checkout root:

    python3 -m pytest -q perfbench

They run real benchmark jobs, so they take one to five minutes on a
2-vCPU host.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(monkeypatch, capsys, *args: str) -> dict:
    monkeypatch.chdir(ROOT)
    assert run.main(list(args)) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_names_and_units_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_printed_metrics_match_benchmark_json(monkeypatch, capsys, trace, section):
    monkeypatch.setitem(run.WORKLOADS["long_run"], "jobs", 2)
    out = _bench(monkeypatch, capsys, "--workload", "long_run", "--seed", "3",
                 "--seconds", "1", "--trace", trace)
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert list(out["metrics"]) == [m["name"] for m in SPEC[section]]
    for m in SPEC[section]:
        assert out["metrics"][m["name"]]["unit"] == m["unit"]
    if trace == "1":
        # The ESN layer comes from the traced run's own `spinqrc esn` job.
        assert out["metrics"]["esn.calls"]["value"] > 0
        assert out["metrics"]["esn.calls.t1"]["value"] > 0


def _corrupt(path: Path) -> None:
    if path.suffix == ".npy":
        np.save(path, np.load(path) + 1e-9)
    else:
        text = path.read_text()
        path.write_text(text[:-2] + ("0" if text[-2] != "0" else "1") + "\n")


@pytest.mark.parametrize("workload", ["sweep", "long_run"])
def test_corrupted_output_is_a_failure(monkeypatch, capsys, workload):
    honest = run.Bench.run_job

    def corrupting(self, *args, **kwargs):
        job = honest(self, *args, **kwargs)
        if job.output is not None and job.output.is_file():
            _corrupt(job.output)
        return job

    monkeypatch.setattr(run.Bench, "run_job", corrupting)
    monkeypatch.setitem(run.WORKLOADS[workload], "jobs", 1)
    out = _bench(monkeypatch, capsys, "--workload", workload, "--seed", "1",
                 "--seconds", "0", "--trace", "0")
    assert not out["correct"]
    assert out["failed"] / out["attempted"] > 0


def test_failed_jobs_set_no_timing():
    fast_failure = run.Job(ok=False, wall_s=0.01, rss_mb=1.0)
    passed = [run.Job(ok=True, wall_s=float(w), rss_mb=50.0) for w in (3, 1, 2, 9)]
    timed = run.timed_jobs([fast_failure, *passed], 3)
    assert timed == passed[:3]
    assert run.timed_jobs([fast_failure], 3) == [fast_failure]


def test_traced_fail_ratio_counts_corruption(monkeypatch, capsys):
    monkeypatch.setattr(run, "SCAN_SIZES", ((2, 3),))
    monkeypatch.setattr(run.Bench, "check",
                        lambda self, jobs: [setattr(j, "ok", False) for j in jobs])
    out = _bench(monkeypatch, capsys, "--workload", "long_run", "--seed", "0",
                 "--seconds", "1", "--trace", "1")
    assert out["metrics"]["fail_ratio"]["value"] > 0


@pytest.mark.parametrize("workload", ["sweep", "esn"])
def test_goldens_reproduce_on_held_out_seed(tmp_path, workload):
    for base in range(run.GOLDEN_SEEDS):
        assert run.golden_path(workload, base).is_file()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, "-m", "spinqrc.cli",
                    *run.cli_argv(workload, run.HELD_OUT_SEED, tmp_path)],
                   cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL)
    golden = run.golden_path(workload, run.HELD_OUT_SEED)
    assert (tmp_path / "metrics.csv").read_bytes() == golden.read_bytes()


def test_reference_matches_program():
    sys.path.insert(0, str(ROOT / "src"))
    from spinqrc.reservoir import ReservoirConfig, run_sequence

    inputs = np.random.default_rng(5).uniform(0.0, 1.0, 300)
    config = ReservoirConfig(n_qubits=4, topology="ring", gamma=0.01,
                             coupling_seed=11, input_qubit=2,
                             n_pre=298, n_fb=1, n_test=1)
    expected = reference.z_rows(4, "ring", 0.01, 11, inputs, input_qubit=2)
    assert np.abs(run_sequence(config, inputs).z_rows - expected).max() <= run.Z_TOL


def test_tracer_self_time_and_absent_targets(monkeypatch):
    ticks = iter(range(100))
    fake = types.ModuleType("fake_layers")
    fake.inner = lambda: None
    fake.outer = lambda: (fake.inner(), fake.inner())
    monkeypatch.setitem(sys.modules, "fake_layers", fake)
    t = tracer.Tracer(clock=lambda: float(next(ticks)))
    t.wrap("fake_layers", "outer", "outer")
    t.wrap("fake_layers", "inner", "inner")
    t.wrap("fake_layers", "removed", "gone")
    t.wrap("no_such_module_here", "f", "gone")
    fake.outer()
    # outer spans ticks 0..5, each inner one tick: self time 5 - 2.
    table = tracer._span_table(t.spans)
    assert [s for _, s, _ in table["outer"]] == [3.0]
    assert [s for _, s, _ in table["inner"]] == [1.0, 1.0]
    assert t.absent == ["fake_layers.removed", "no_such_module_here.f"]


def test_bare_benchmark_directory_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
