"""The calls that the benchmark under ``perfbench/`` makes into spinqrc.

A renamed function or a changed result type would otherwise show only as
failed or absent benchmark operations, after the fact.
"""
import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

from spinqrc.reservoir import ReservoirConfig, run_sequence

ROOT = Path(__file__).resolve().parents[1]
# The one target with no function behind it today; the tracer records it
# in ``trace.absent``.
KNOWN_ABSENT = {"spinqrc.cli.run_esn_comparison"}


def load_tracer(monkeypatch):
    """``perfbench/tracer.py`` as a module, with no bytecode written beside
    it; nothing is wrapped."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(
        "tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_exists(monkeypatch):
    missing = set()
    for module_name, attr, *_ in load_tracer(monkeypatch).TARGETS:
        module = importlib.import_module(module_name)
        if not callable(getattr(module, attr, None)):
            missing.add(f"{module_name}.{attr}")
    assert missing == KNOWN_ABSENT


def test_a_trajectory_job_saves_run_sequence_bytes(tmp_path):
    z_path, result = tmp_path / "z.npy", tmp_path / "result.json"
    spec = dict(kind="trajectory", src=str(ROOT / "src"), n_qubits=3,
                steps=20, seed=3, topology="linear", gamma=0.1,
                z_path=str(z_path))
    subprocess.run([sys.executable, str(ROOT / "perfbench" / "job.py"),
                    json.dumps(spec), str(result)], check=True, timeout=120)
    # The job's config and drive: a 20-step run from coupling seed 3 over
    # default_rng(3)'s uniform draws.
    config = ReservoirConfig(n_qubits=3, topology="linear", gamma=0.1,
                             coupling_seed=3, n_pre=18, n_fb=1, n_test=1)
    inputs = np.random.default_rng(3).uniform(0.0, 1.0, 20)
    expected = run_sequence(config, inputs).z_rows
    assert np.load(z_path).tobytes() == expected.tobytes()
    assert json.loads(result.read_text())["evolve_s"] > 0
