"""Trajectories simulated in worker processes: identical output at any
worker count, errors and dead workers reported, every child reaped."""
import json
import os
import signal
import time
from pathlib import Path

import pytest

from spinqrc import experiment, reservoir, workers
from spinqrc.cli import EXIT_NUMERICAL, main
from spinqrc.errors import StateInvariantError
from spinqrc.experiment import (TASK_NAMES, ExperimentManifest, SweepGrid,
                                run_experiment)

GOLDENS = Path(__file__).resolve().parents[1] / "perfbench" / "goldens"
SMALL = {"n_qubits": 4, "n_pre": 10, "n_fb": 30, "n_test": 10}
# Two coupling draws of one cell, so two workers get one each.
TWO_DRAWS = dict(SMALL, seeds=2, tasks=["narma2"],
                 sweep={"topologies": ["linear"], "gammas": [0.1],
                        "readouts": [1]})


def use_workers(monkeypatch, count):
    monkeypatch.setattr(workers, "_available_cpus", lambda: count)


@pytest.fixture
def forks(monkeypatch):
    """Pids of the worker processes forked during the test."""
    pids = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


def reaped(pid):
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


@pytest.fixture(autouse=True)
def deadline():
    """Fail a test that runs past two minutes instead of hanging."""
    def expire(signum, frame):
        raise TimeoutError("still running after 120 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(120)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("count", [1, 2])
@pytest.mark.parametrize("argv, golden", [
    (["sweep", "--seeds", "1", "--seed", "10"], "sweep_seed10.csv"),
    (["esn", "--seeds", "40", "--seed", "10"], "esn_seed10.csv")])
def test_goldens_at_one_and_two_workers(tmp_path, monkeypatch, forks, argv,
                                        golden, count):
    use_workers(monkeypatch, count)
    assert main([*argv, "--out", str(tmp_path)]) == 0
    assert ((tmp_path / "metrics.csv").read_bytes()
            == (GOLDENS / golden).read_bytes())
    assert len(forks) == count - 1
    assert all(reaped(pid) for pid in forks)


def test_builds_one_propagator_per_coupling_draw(monkeypatch):
    use_workers(monkeypatch, 1)
    reservoir._draw_unitary.cache_clear()
    builds = []
    build = reservoir.evolution_operator

    def counted(config):
        builds.append((config.topology, config.coupling_seed))
        return build(config)

    monkeypatch.setattr(reservoir, "evolution_operator", counted)
    run_experiment(SweepGrid().manifests(dict(SMALL), tasks=TASK_NAMES,
                                         n_seeds=2, base_seed=0,
                                         input_seed=42))
    # 2 topologies x 2 seeds: gamma, readout and drive do not enter U.
    assert len(builds) == 4
    assert len(set(builds)) == 4


def test_counts_calls_across_worker_processes(tmp_path, monkeypatch, forks):
    use_workers(monkeypatch, 2)
    log = tmp_path / "calls.txt"
    run_sequence = experiment.run_sequence

    def logged(config, inputs):
        with open(log, "a") as f:
            f.write(f"{os.getpid()} {config.n_qubits}\n")
        return run_sequence(config, inputs)

    monkeypatch.setattr(experiment, "run_sequence", logged)
    cells = SweepGrid().manifests(dict(SMALL), tasks=TASK_NAMES, n_seeds=2,
                                  base_seed=0, input_seed=42)
    cells.append(ExperimentManifest(
        kind="reservoir", tasks=("narma2",), readout=2, n_seeds=2,
        config={"n_qubits": 9, "n_pre": 1, "n_fb": 4, "n_test": 2}))
    run_experiment(cells)
    calls = [line.split() for line in log.read_text().splitlines()]
    # 2 topologies x 2 gammas x 2 drives x 2 seeds, plus 2 nine-qubit runs.
    assert len(calls) == 18
    assert len({pid for pid, _ in calls}) == 2
    assert len(forks) == 1 and all(reaped(pid) for pid in forks)


@pytest.mark.parametrize("where", ["child", "parent"])
def test_invariant_error_in_any_process_exits_3(tmp_path, monkeypatch, capsys,
                                                forks, where):
    use_workers(monkeypatch, 2)
    parent = os.getpid()
    run_sequence = experiment.run_sequence

    def failing(config, inputs):
        if (os.getpid() == parent) == (where == "parent"):
            raise StateInvariantError("trace deviates from 1 by 3.00e-01")
        if where == "parent":
            time.sleep(600)  # a worker whose results are no longer wanted
        return run_sequence(config, inputs)

    monkeypatch.setattr(experiment, "run_sequence", failing)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(TWO_DRAWS))
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(config), "--out", str(out)]) \
        == EXIT_NUMERICAL
    # The parent runs the first draw's group, the worker the second's.
    seed = 0 if where == "parent" else 1
    assert capsys.readouterr().err == (
        "error: trace deviates from 1 by 3.00e-01 (member: topology linear, "
        f"n_qubits 4, gamma 0.1, coupling_seed {seed})\n")
    assert not (out / "metrics.csv").exists()
    assert len(forks) == 1 and all(reaped(pid) for pid in forks)


def test_dead_worker_fails_the_run(tmp_path, monkeypatch, forks):
    use_workers(monkeypatch, 2)
    parent = os.getpid()
    run_sequence = experiment.run_sequence

    def dying(config, inputs):
        if os.getpid() != parent:
            os._exit(9)
        return run_sequence(config, inputs)

    monkeypatch.setattr(experiment, "run_sequence", dying)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(TWO_DRAWS))
    out = tmp_path / "out"
    with pytest.raises(ChildProcessError, match="status 9"):
        main(["sweep", "--config", str(config), "--out", str(out)])
    assert not (out / "metrics.csv").exists()
    assert len(forks) == 1 and all(reaped(pid) for pid in forks)
