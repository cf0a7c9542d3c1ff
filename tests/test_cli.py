import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from conftest import FROZEN_JOBS, frozen_under

import spinqrc
from spinqrc import experiment, reservoir, workers
from spinqrc.cli import EXIT_CONFIG, EXIT_NUMERICAL, exit_code_for, main
from spinqrc.errors import (ConfigError, DivergenceError, StateInvariantError,
                            ValidationError)
from spinqrc.linalg import BLAS_LIBRARIES, load_blas
from spinqrc.qubits import ground_density
from spinqrc.reservoir import Topology

PHASES = {"n_pre": 10, "n_fb": 30, "n_test": 10}
SMALL = {"n_qubits": 4, **PHASES}


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(SMALL))
    return str(path)


def test_run_writes_report(tmp_path, config_file):
    out = tmp_path / "out"
    code = main(["run", "--config", config_file, "--task", "narma2",
                 "--seeds", "2", "--out", str(out)])
    assert code == 0
    assert (out / "metrics.csv").exists()
    assert (out / "manifest_narma2_linear_g0.1_r1.json").exists()
    assert (out / "trajectory_narma2_linear_g0.1_r1.csv").exists()
    header = (out / "metrics.csv").read_text().splitlines()[0]
    assert header == "task,topology,readout_type,gamma,seed_count,mean_metric,std_metric"


def count_simulations(monkeypatch):
    """Record the coupling seed of every run_sequence call, at one worker
    process: calls made in a forked worker would go uncounted here."""
    monkeypatch.setattr(workers, "_available_cpus", lambda: 1)
    calls = []
    run_sequence = experiment.run_sequence

    def counted(config, inputs):
        calls.append(config.coupling_seed)
        return run_sequence(config, inputs)

    monkeypatch.setattr(experiment, "run_sequence", counted)
    return calls


def test_run_simulates_each_member_once(tmp_path, config_file, monkeypatch):
    calls = count_simulations(monkeypatch)
    out = tmp_path / "out"
    assert main(["run", "--config", config_file, "--task", "narma2",
                 "--seeds", "2", "--out", str(out)]) == 0
    # The trajectory report reuses member 0's run; a manifest read back from
    # disk carries no trajectory, and the report refuses it.
    assert calls == [0, 1]
    manifest = experiment.ExperimentManifest.from_json(experiment.read_json(
        out / "manifest_narma2_linear_g0.1_r1.json", "manifest"))
    assert manifest.trajectory is None
    with pytest.raises(ConfigError, match="run_experiment"):
        experiment.trajectory_csv_text(manifest)
    assert calls == [0, 1]


def test_run_rejects_duplicate_stm_delay(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dict(SMALL, stm_delays=[1, 1, 2])))
    out = tmp_path / "out"
    code = main(["run", "--config", str(path), "--task", "stm",
                 "--seeds", "1", "--out", str(out)])
    assert code == EXIT_CONFIG
    assert not out.exists()


def test_a_long_list_of_unhashable_entries_exits_2_at_once(tmp_path, capsys):
    # 20,000 one-element lists (a 169 KB file): the entry check rejects the
    # first, with no duplicate test comparing them pairwise before it.
    path = tmp_path / "config.json"
    path.write_text(json.dumps(
        dict(SMALL, stm_delays=[[d] for d in range(20_000)])))
    out = tmp_path / "out"
    started = time.monotonic()
    code = main(["run", "--config", str(path), "--task", "stm",
                 "--seeds", "1", "--out", str(out)])
    assert time.monotonic() - started < 1.0
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "error: stm_delays[0] must be an integer in [0, 99], got [0]\n")
    assert not out.exists()


@pytest.mark.skipif(load_blas(BLAS_LIBRARIES[0]) is None,
                    reason="numpy carries no bundled OpenBLAS")
def test_simulation_never_imports_scipy():
    script = (
        "import sys\n"
        "import numpy as np\n"
        "import spinqrc.cli\n"
        "from spinqrc.reservoir import ReservoirConfig, run_sequence, step\n"
        "cfg = ReservoirConfig(n_qubits=2, n_pre=4, n_fb=4, n_test=4)\n"
        "run_sequence(cfg, np.full(cfg.total_steps, 0.3))\n"
        "step(np.eye(4) / 4, 0.3, np.eye(4), 0.1)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    src = str(Path(spinqrc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


def test_cli_never_imports_numpy_random(tmp_path, config_file):
    # One worker process, so that every draw is made in the process that
    # reports its modules.
    script = (
        "import sys\n"
        "from spinqrc import cli, workers\n"
        "workers._available_cpus = lambda: 1\n"
        "config, out = sys.argv[1:]\n"
        "for argv in (['run'], ['sweep', '--gamma', '0.1', '--readout', '1'],\n"
        "             ['esn']):\n"
        "    assert cli.main([*argv, '--config', config, '--task', 'stm',\n"
        "                     '--seeds', '2', '--out', out]) == 0\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.split('.')[:2] == ['numpy', 'random']))\n")
    src = str(Path(spinqrc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    done = subprocess.run(
        [sys.executable, "-c", script, config_file, str(tmp_path / "out")],
        env=env, capture_output=True, text=True, check=True)
    assert done.stdout.splitlines()[-1] == "[]"
    for variant in (1, 3, 5):
        assert (tmp_path / "out" / f"manifest_stm_esn{variant}.json").exists()


def test_nonhermitian_start_state_exits_3(tmp_path, config_file, capsys,
                                          monkeypatch):
    def skewed_ground_density(n_qubits):
        rho = ground_density(n_qubits).astype(complex)
        rho[0, 1] = 1e-6  # trace 1, not Hermitian
        return rho

    monkeypatch.setattr(reservoir, "ground_density", skewed_ground_density)
    out = tmp_path / "out"
    code = main(["run", "--config", config_file, "--task", "narma2",
                 "--seeds", "2", "--out", str(out)])
    assert code == EXIT_NUMERICAL
    assert capsys.readouterr().err == (
        "error: state is not Hermitian within tolerance before step 0 "
        "(member: topology linear, n_qubits 4, gamma 0.1, coupling_seed 0)\n")
    assert not (out / "metrics.csv").exists()


def test_run_flag_overrides(tmp_path, config_file):
    out = tmp_path / "out"
    code = main(["run", "--config", config_file, "--task", "narma2",
                 "--topology", "ring", "--gamma", "0.01", "--readout", "2",
                 "--seeds", "1", "--out", str(out)])
    assert code == 0
    manifest = json.loads(
        (out / "manifest_narma2_ring_g0.01_r2.json").read_text())
    assert manifest["config"]["topology"] == "ring"
    assert manifest["config"]["gamma"] == 0.01
    assert manifest["readout"] == 2


def test_run_stm_task(tmp_path, config_file):
    out = tmp_path / "out"
    code = main(["run", "--config", config_file, "--task", "stm",
                 "--seeds", "1", "--out", str(out)])
    assert code == 0
    lines = (out / "metrics.csv").read_text().splitlines()
    assert len(lines) == 12  # header + delays 0..10
    assert lines[1].startswith("stm_tau00,")


def test_sweep_emits_grid(tmp_path):
    cfg = dict(SMALL, seeds=1, tasks=["narma2"])
    cfg["sweep"] = {"topologies": ["linear"], "gammas": [0.1, 0.01],
                    "readouts": [1]}
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(path), "--out", str(out)]) == 0
    manifests = sorted(p.name for p in out.glob("manifest_*.json"))
    assert manifests == ["manifest_narma2_linear_g0.01_r1.json",
                         "manifest_narma2_linear_g0.1_r1.json"]
    rows = (out / "metrics.csv").read_text().splitlines()
    assert len(rows) == 3


def test_sweep_trajectories_reuse_simulations(tmp_path, monkeypatch):
    calls = count_simulations(monkeypatch)
    cfg = dict(SMALL, trajectory=True, seeds=1, tasks=["narma2"])
    cfg["sweep"] = {"topologies": ["linear"], "gammas": [0.1],
                    "readouts": [1, 2]}
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(path), "--out", str(out)]) == 0
    assert len(list(out.glob("trajectory_*.csv"))) == 2
    assert len(calls) == 1  # both readout cells share one simulation


def test_sweep_rejects_duplicate_gamma(tmp_path):
    cfg = dict(SMALL, seeds=1, tasks=["narma2"])
    cfg["sweep"] = {"gammas": [0.1, 0.1]}
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    code = main(["sweep", "--config", str(path), "--out", str(out)])
    assert code == EXIT_CONFIG
    assert not out.exists()


def test_sweep_reads_top_level_stm_delays(tmp_path):
    cfg = dict(SMALL, seeds=1, stm_delays=[1, 2],
               sweep={"topologies": ["linear"], "gammas": [0.1],
                      "readouts": [1]})
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(path), "--task", "stm",
                 "--out", str(out)]) == 0
    rows = (out / "metrics.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["stm_tau01", "stm_tau02"]


def test_default_sweep_matches_frozen_golden(frozen_run):
    argv, golden = FROZEN_JOBS["sweep"]
    run = frozen_run(argv)
    assert run.warned == {1: [], 2: []}
    # The manifests alone give the frozen metrics.csv back.
    assert run.report == golden.read_bytes(), frozen_under()


def test_default_esn_matches_frozen_golden(frozen_run):
    argv, golden = FROZEN_JOBS["esn"]
    run = frozen_run(argv)
    assert run.warned == {1: [], 2: []}
    assert run.report == golden.read_bytes(), frozen_under()


def test_dissipation_curve_matches_frozen_golden(frozen_run):
    argv, golden = FROZEN_JOBS["dissipation_curve"]
    run = frozen_run(argv)
    # At gamma = 1 every feature is constant, so each STM capacity is 0 and
    # stm_capacity warns, at either worker count.
    for caught in run.warned.values():
        assert caught
        assert all(issubclass(w.category, UserWarning)
                   and "constant sequence" in str(w.message) for w in caught)
    assert run.report == golden.read_bytes(), frozen_under()


def test_invariant_error_in_an_esn_member_names_it(tmp_path, capsys,
                                                   monkeypatch):
    monkeypatch.setattr(workers, "_available_cpus", lambda: 1)
    run_esn = experiment.run_esn

    def failing(config, inputs):
        if (config.variant, config.weight_seed) == (3, 1):
            raise StateInvariantError("state left its bounds")
        return run_esn(config, inputs)

    monkeypatch.setattr(experiment, "run_esn", failing)
    path = tmp_path / "esn.json"
    path.write_text(json.dumps(dict(PHASES, esn=dict(n_nodes=4))))
    out = tmp_path / "out"
    assert main(["esn", "--config", str(path), "--task", "narma2",
                 "--seeds", "2", "--out", str(out)]) == EXIT_NUMERICAL
    assert capsys.readouterr().err == (
        "error: state left its bounds (member: variant 3, weight_seed 1)\n")
    assert not out.exists()


def test_numerical_failure_in_a_worker_exits_3(tmp_path, capsys,
                                               monkeypatch):
    # A NaN in the ring draw's U; the ring group runs in a forked worker.
    draw_unitary = reservoir._draw_unitary

    def poisoned(draw):
        u = draw_unitary(draw)
        if draw[0] is Topology.RING:
            u = u.copy(order="F")
            u[0, 0] = float("nan")
        return u

    monkeypatch.setattr(reservoir, "_draw_unitary", poisoned)
    monkeypatch.setattr(workers, "_available_cpus", lambda: 2)
    cfg = dict(SMALL, seeds=1, tasks=["narma2"],
               sweep={"topologies": ["linear", "ring"], "gammas": [0.1],
                      "readouts": [1]})
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(path), "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        "error: trace deviates from 1 by nan at step 0 "
        "(member: topology ring, n_qubits 4, gamma 0.1, coupling_seed 0)\n")
    assert not (out / "metrics.csv").exists()


def test_a_run_too_large_for_memory_exits_2(tmp_path, capsys):
    # The NARMA drive's first array needs 800 PB, more than any address
    # space holds, so its allocation fails at once.
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"n_pre": 10**17}))
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--task", "narma2",
                 "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory: ")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert not (out / "metrics.csv").exists()


@pytest.mark.parametrize("argv, cfg, error", [
    # The STM drive's 10**17 bits are allocated before they are drawn, so
    # the allocation fails at once.
    (["run", "--task", "stm"], {"n_pre": 10**17}, "out of memory: "),
    # An ESN of 10**9 nodes needs more training steps than a drive any
    # memory holds, so it fails before its weights are allocated
    # (test_esn.py's test_a_weight_matrix_no_memory_holds_fails_at_once).
    (["esn", "--task", "narma2", "--seeds", "1"],
     dict(PHASES, esn={"n_nodes": 10**9, "variants": [1]}),
     "n_fb must be an integer >= 1000000001, "),
    # A manifest holds at most MAX_SEEDS members.
    (["run", "--task", "narma2", "--seeds", str(10**12)], SMALL,
     "n_seeds must be an integer in [1, 10000], got 1000000000000"),
    # Sizes past numpy's largest array fail as the allocation would.
    (["run", "--task", "stm"], {"n_pre": 10**19}, "out of memory: "),
    (["run", "--task", "narma2"], {"n_pre": 10**19}, "out of memory: "),
    (["esn", "--task", "narma2", "--seeds", "1"],
     dict(PHASES, esn={"n_nodes": 10**10, "variants": [1]}),
     "n_fb must be an integer >= 10000000001, "),
    # A number too large for a float is checked without converting it.
    (["run", "--task", "narma2"], dict(PHASES, n_qubits=10**400),
     "n_qubits must be an integer in [2, 10], got 1000"),
], ids=["stm_drive", "esn_weights", "seeds", "stm_drive_past_numpy",
        "narma_drive_past_numpy", "esn_weights_past_numpy", "huge_n_qubits"])
def test_a_size_no_run_can_hold_exits_2_at_once(tmp_path, capsys, argv, cfg,
                                                error):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    started = time.monotonic()
    assert main([*argv, "--config", str(path), "--out", str(out)]) == \
        EXIT_CONFIG
    assert time.monotonic() - started < 30
    err = capsys.readouterr().err
    assert err.startswith(f"error: {error}")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert not out.exists()


@pytest.mark.parametrize("command, cfg, unknown", [
    ("run", {"n_qubits": 4, "gama": 0.5, "n_pre": 10, "n_fb": 30,
             "n_test": 10}, "gama"),
    ("sweep", dict(SMALL, sweep={"variants": [1, 3]}), "variants"),
    ("esn", dict(PHASES, esn=dict(n_nodes=4, variant=[1])), "variant"),
    # The ensemble size and the delays have one key each, at the top level.
    ("sweep", dict(SMALL, sweep={"n_seeds": 3}), "n_seeds"),
    ("sweep", dict(SMALL, sweep={"stm_delays": [1]}), "stm_delays"),
    # So have the tasks and the phase lengths.
    ("run", dict(SMALL, task="stm"), "task"),
    ("sweep", dict(SMALL, sweep={"tasks": ["stm"]}), "tasks"),
    *(("esn", {"esn": {key: 10}}, key) for key in PHASES),
])
def test_unknown_config_key_exits_2(tmp_path, capsys, command, cfg, unknown):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    code = main([command, "--config", str(path), "--task", "narma2",
                 "--seeds", "1", "--out", str(out)])
    assert code == EXIT_CONFIG
    assert f"error: unknown key(s) {unknown!r} in " in capsys.readouterr().err
    assert not out.exists()


# Each bad manifest value, and a fragment of the error it must raise.
BAD_MANIFEST_VALUES = {
    "string_seeds": ({"seeds": "x"},
                     "n_seeds must be an integer in [1, 10000], got 'x'"),
    "fractional_seeds": ({"seeds": 2.7}, "n_seeds must be an integer"),
    "fractional_seed": ({"seed": 1.5}, "base_seed must be an integer"),
    "string_input_seed": ({"input_seed": "42"},
                          "input_seed must be an integer >= 0, got '42'"),
    "negative_seed": ({"seed": -1},
                      "base_seed must be an integer >= 0, got -1"),
    "negative_input_seed": ({"input_seed": -5},
                            "input_seed must be an integer >= 0, got -5"),
    "string_ridge": ({"ridge": "a"}, "ridge must be a number >= 0, got 'a'"),
    "negative_ridge": ({"ridge": -1}, "ridge must be a number >= 0, got -1"),
    "unknown_readout": ({"readout": 3},
                        "readout must be an integer in [1, 2], got 3"),
    "nested_stm_delay": ({"stm_delays": [[1]]},
                         "stm_delays[0] must be an integer in [0, 99], "
                         "got [1]"),
    "scalar_stm_delays": ({"stm_delays": 1}, "stm_delays must be a list"),
    "out_of_range_stm_delays": ({"stm_delays": [-1, 100]},
                                "stm_delays[0] must be an integer in [0, 99], "
                                "got -1"),
    "repeated_stm_delays": ({"stm_delays": [1, 1]},
                            "stm_delays has a duplicate value: [1, 1]"),
    # 1 and 1.0 would write one row id; True is no delay at all.
    "repeated_float_stm_delay": ({"stm_delays": [1, 1.0]},
                                 "stm_delays has a duplicate value: [1, 1.0]"),
    "bool_stm_delay": ({"stm_delays": [1, True]},
                       "stm_delays[1] must be an integer in [0, 99], "
                       "got True"),
    "scalar_tasks": ({"tasks": "narma2"}, "tasks must be a list, got 'narma2'"),
    "zero_seeds": ({"seeds": 0},
                   "n_seeds must be an integer in [1, 10000], got 0")}

# A stored manifest that `report` reads, and broken variants of its metrics.
# The manifest produces the one row ROW_ID, which holds n_seeds = 10 values.
ROW_ID = "narma2|linear|per_qubit|0.1"
ROW = [0.5] * 10
MANIFEST = json.loads(experiment.ExperimentManifest(
    kind="reservoir", config=dict(SMALL), tasks=("narma2",)).to_json())
ESN_MANIFEST = json.loads(experiment.ExperimentManifest(
    kind="esn", config=dict(PHASES, n_nodes=4), tasks=("narma2",)).to_json())
BAD_STORED_METRICS = {
    "metrics_list": ([], "metrics must be a JSON object, got []"),
    "string_per_seed": ({ROW_ID: ["a"]},
                        f"stored row {ROW_ID}: per_seed[0] must be a "
                        "number, got 'a'"),
    "empty_per_seed": ({ROW_ID: []},
                       f"stored row {ROW_ID}: per_seed must hold n_seeds "
                       "= 10 values, got 0"),
    "number_row": ({ROW_ID: 5},
                   f"stored row {ROW_ID}: per_seed must be a list, got 5"),
    "nan_per_seed": ({ROW_ID: [float("nan")] * 10},
                     "per_seed[0] must be a number, got nan"),
    "infinite_per_seed": ({ROW_ID: [0.5, float("inf")] + [0.5] * 8},
                          "per_seed[1] must be a number, got inf"),
    "huge_per_seed": ({ROW_ID: [10**400] * 10},
                      "per_seed[0] must be a number, got 1000000"),
    "bool_per_seed": ({ROW_ID: [True] * 10},
                      "per_seed[0] must be a number, got True"),
    # Rows that are not the manifest's own.
    "foreign_row": ({"narma2|ring|per_qubit|0.1": ROW},
                    "stored rows ['narma2|ring|per_qubit|0.1'] are not the "
                    f"manifest's rows ['{ROW_ID}']"),
    "misfiled_row": ({"r": ROW},
                     "stored rows ['r'] are not the manifest's rows"),
    "short_per_seed": ({ROW_ID: [0.5]},
                       f"stored row {ROW_ID}: per_seed must hold n_seeds "
                       "= 10 values, got 1")}


@pytest.mark.parametrize("command, cfg, fragment", [
    ("run", dict(SMALL, n_qubits="4"), "n_qubits must be an integer"),
    ("run", dict(SMALL, topology="rign"), "unknown topology 'rign'"),
    # A U whose phases overflow; theta0 1e307 still runs.
    ("run", dict(SMALL, theta0=5e307, seeds=1),
     "theta0 5e+307 is too large: a phase t w of exp(-i t h) is not finite"),
    ("esn", dict(PHASES, esn=dict(n_nodes=4, variants=[1, 1])),
     "variants has a duplicate value"),
    ("esn", dict(PHASES, esn=dict(n_nodes=4, variants=[])),
     "need at least one ESN variant"),
    ("esn", dict(PHASES, esn=dict(n_nodes=4, variants=3)),
     "variants must be a list, got 3"),
    ("esn", dict(PHASES, esn=dict(n_nodes=4, variants=[10**400])),
     "variant must be one of (1, 3, 5), got 100000000000000000...0000000000"
     "000000000\n"),
    ("esn", dict(PHASES, esn=dict(n_nodes=4, variants=[1, True])),
     "variant must be an integer, got True"),
    # A schedule too short for its fits fails before anything runs.
    ("run", dict(SMALL, n_qubits=8, n_fb=1),
     "n_fb must be an integer >= 9, one training step per feature column "
     "of the readout, got 1"),
    ("run", dict(SMALL, n_qubits=8, n_test=1, tasks=["stm"]),
     "n_test must be an integer >= 2 for the stm task's capacity, got 1"),
    *(("run", dict(SMALL, **bad), fragment)
      for bad, fragment in BAD_MANIFEST_VALUES.values()),
    ("sweep", dict(SMALL, ridge="a"), "ridge must be a number >= 0, got 'a'"),
    ("sweep", dict(SMALL, seeds=1.5), "n_seeds must be an integer"),
    ("sweep", dict(SMALL, sweep={"gammas": 0.1}),
     "sweep axis gammas must be a list, got 0.1"),
    ("sweep", dict(SMALL, sweep={"topologies": "ring"}),
     "sweep axis topologies must be a list, got 'ring'"),
    ("sweep", dict(SMALL, sweep={"gammas": [[0.1]]}),
     "gamma must be a number in [0, 1], got [0.1]"),
    ("sweep", dict(SMALL, sweep={"readouts": [1, True]}),
     "readout must be an integer in [1, 2], got True"),
    ("sweep", dict(SMALL, trajectory="false"),
     "trajectory must be true or false, got 'false'"),
    ("esn", dict(SMALL, tasks=[]), "tasks is empty"),
    ("esn", dict(PHASES, seed=-3, esn=dict(n_nodes=4)),
     "base_seed must be an integer >= 0, got -3"),
    *(("report", dict(MANIFEST, metrics=bad), fragment)
      for bad, fragment in BAD_STORED_METRICS.values()),
    ("report", [MANIFEST], "the manifest must be a JSON object, got [{"),
    ("report", dict(MANIFEST, config={"gama": 0.5}),
     "unknown key(s) 'gama' in config; known keys: gamma, input_qubit, "),
    ("report", dict(MANIFEST, config=[4]), "config must be a JSON object"),
    ("report", dict(MANIFEST, colour=1),
     "unknown key(s) 'colour' in the manifest; known keys: base_seed, "),
    ("report", {k: v for k, v in MANIFEST.items() if k != "tasks"},
     "the manifest has no 'tasks'"),
    # A field that the manifest's kind never reads keeps its default.
    ("report", dict(ESN_MANIFEST, readout=2),
     "a manifest of kind 'esn' never reads readout, so it must be 1; got 2"),
    # A manifest stored before each manifest was one cell.
    ("report", dict(MANIFEST, variants=[1, 3, 5]),
     "unknown key(s) 'variants' in the manifest; known keys: base_seed, "),
], ids=["string_n_qubits", "misspelled_topology", "huge_theta0",
        "repeated_variant",
        "no_variants", "scalar_variants", "huge_variant", "bool_variant",
        "short_n_fb",
        "short_n_test_for_stm", *BAD_MANIFEST_VALUES,
        "sweep_string_ridge", "sweep_fractional_n_seeds",
        "sweep_scalar_gammas", "sweep_string_topologies",
        "sweep_nested_gamma", "sweep_bool_readout", "sweep_string_trajectory",
        "esn_empty_tasks", "esn_negative_seed", *BAD_STORED_METRICS,
        "report_manifest_list",
        "report_unknown_config_key", "report_config_list",
        "report_unknown_manifest_key", "report_missing_tasks",
        "report_esn_readout", "report_reservoir_variants"])
def test_bad_config_value_exits_2(tmp_path, capsys, command, cfg, fragment):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    flags = []
    if command != "report":  # which reads only --config and --out
        flags += [] if "tasks" in cfg else ["--task", "narma2"]
        flags += [] if "seeds" in cfg else ["--seeds", "2"]
    code = main([command, "--config", str(path), *flags, "--out", str(out)])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and fragment in err
    assert sum(line.startswith("error:") for line in err.splitlines()) == 1
    assert not out.exists()


# A manifest as earlier releases wrote it, with `version` and `created`
# stamps, and variants of those stamps; `report` drops each unread.
STAMPED = dict(MANIFEST, metrics={ROW_ID: ROW}, version="0.1.0",
               created="2026-10-19T12:00:00.000000+00:00")
STORED_STAMPS = {
    "stamped": STAMPED,
    **{f"missing_{key}": {k: v for k, v in STAMPED.items() if k != key}
       for key in ("version", "created")},
    "number_version": dict(STAMPED, version=7),
    "empty_version": dict(STAMPED, version=""),
    "list_created": dict(STAMPED, created=[]),
    "number_created": dict(STAMPED, created=5)}


@pytest.mark.parametrize("stored", STORED_STAMPS.values(),
                         ids=list(STORED_STAMPS))
def test_report_drops_stored_stamps(tmp_path, stored):
    unstamped = dict(MANIFEST, metrics={ROW_ID: ROW})
    for name, manifest in (("stamped", stored), ("unstamped", unstamped)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(manifest))
        assert main(["report", "--config", str(path),
                     "--out", str(tmp_path / name)]) == 0
    assert ((tmp_path / "stamped" / "metrics.csv").read_bytes()
            == (tmp_path / "unstamped" / "metrics.csv").read_bytes())


@pytest.mark.parametrize("argv, cfg", [
    (["run", "--task", "stm", "--seeds", "2"], SMALL),
    (["run", "--task", "narma2", "--seeds", "2"], SMALL),
    (["sweep", "--seeds", "1"], dict(SMALL, trajectory=True)),
    (["esn", "--seeds", "2"], dict(PHASES, esn={"n_nodes": 4}))],
    ids=["run", "run_narma2", "sweep", "esn"])
def test_two_runs_write_identical_files(tmp_path, argv, cfg):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    written = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main([*argv, "--config", str(path), "--out", str(out)]) == 0
        written.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert written[0] == written[1]


@pytest.mark.parametrize("command, cfg, where, got", [
    ("run", [SMALL], "config file {}",
     "[{'n_fb': 30, 'n_pre': 10, 'n_qubits': 4, 'n_test': 10}]"),
    ("sweep", dict(SMALL, sweep=[1]), "the sweep block of {}", "[1]"),
    ("esn", dict(PHASES, esn="big"), "the esn block of {}", "'big'"),
], ids=["file", "sweep_block", "esn_block"])
def test_a_config_that_is_not_an_object_exits_2(tmp_path, capsys, command,
                                                cfg, where, got):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    code = main([command, "--config", str(path), "--task", "narma2",
                 "--seeds", "1", "--out", str(out)])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"error: {where.format(path)} must be a JSON object, got {got}\n")
    assert not out.exists()


SMALL_TEXT = json.dumps(SMALL)[1:-1]


@pytest.mark.parametrize("command, text, key", [
    ("run", f'{{{SMALL_TEXT}, "gamma": 0.1, "gamma": 0.5}}', "gamma"),
    ("sweep", f'{{{SMALL_TEXT}, "sweep": {{"gammas": [0.1]}}, '
              '"sweep": {"gammas": [0.5]}}', "sweep"),
    ("sweep", f'{{{SMALL_TEXT}, "sweep": {{"gammas": [0.1], '
              '"gammas": [0.5]}}', "gammas"),
    ("report", json.dumps(MANIFEST).replace(
        '"n_qubits": 4', '"n_qubits": 4, "n_qubits": 5'), "n_qubits"),
], ids=["top_level", "sweep_block_twice", "in_sweep_block", "report"])
def test_repeated_key_exits_2(tmp_path, capsys, command, text, key):
    path = tmp_path / "config.json"
    path.write_text(text)
    out = tmp_path / "out"
    flags = [] if command == "report" else ["--task", "narma2", "--seeds", "1"]
    code = main([command, "--config", str(path), *flags, "--out", str(out)])
    assert code == EXIT_CONFIG
    assert f"repeated key {key!r}" in capsys.readouterr().err
    assert not out.exists()


def test_esn_rejects_repeated_task(tmp_path):
    path = tmp_path / "esn.json"
    path.write_text(json.dumps(dict(PHASES, tasks=["narma2", "narma2"],
                                    esn=dict(n_nodes=4))))
    out = tmp_path / "out"
    code = main(["esn", "--config", str(path), "--seeds", "1",
                 "--out", str(out)])
    assert code == EXIT_CONFIG
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["esn", "--gamma", "0.5"], ["esn", "--topology", "ring"],
    ["esn", "--readout", "2"], ["report", "--seed", "1"],
    ["report", "--seeds", "3"], ["report", "--task", "stm"],
    ["report", "--topology", "ring"], ["report", "--gamma", "0.1"],
    ["report", "--readout", "1"]], ids=lambda argv: argv[0] + argv[1])
def test_option_the_subcommand_never_reads_is_rejected(tmp_path, argv):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(out)])
    assert exc.value.code == EXIT_CONFIG
    assert not out.exists()


def test_esn_subcommand(tmp_path):
    cfg = dict(PHASES, esn=dict(n_nodes=4, variants=[1, 3]))
    path = tmp_path / "esn.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    code = main(["esn", "--config", str(path), "--task", "narma2",
                 "--seeds", "2", "--out", str(out)])
    assert code == 0
    written = (out / "metrics.csv").read_bytes()
    rows = written.decode().splitlines()
    assert len(rows) == 3
    assert rows[1].startswith("narma2,esn1,")
    assert rows[2].startswith("narma2,esn3,")
    # One manifest, so one cell, per variant.
    assert sorted(p.name for p in out.glob("manifest_*.json")) == [
        "manifest_narma2_esn1.json", "manifest_narma2_esn3.json"]
    for variant in (1, 3):
        manifest = experiment.ExperimentManifest.from_json(experiment.read_json(
            out / f"manifest_narma2_esn{variant}.json", "manifest"))
        assert manifest.config["variant"] == variant
        assert len({(row.config, row.readout)
                    for row in manifest.metrics.values()}) == 1
    (out / "metrics.csv").unlink()
    assert main(["report", "--out", str(out)]) == 0
    assert (out / "metrics.csv").read_bytes() == written


def test_esn_reads_top_level_phase_lengths(tmp_path):
    path = tmp_path / "esn.json"
    path.write_text(json.dumps({"n_pre": 3, "n_fb": 20, "n_test": 7,
                                "esn": {"variants": [1]}}))
    out = tmp_path / "out"
    assert main(["esn", "--config", str(path), "--task", "narma2",
                 "--seeds", "1", "--out", str(out)]) == 0
    config = json.loads((out / "manifest_narma2_esn1.json").read_text())[
        "config"]
    assert config == {"n_pre": 3, "n_fb": 20, "n_test": 7, "variant": 1}


def test_run_reads_top_level_tasks(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dict(SMALL, tasks=["stm", "narma2"],
                                    stm_delays=[0, 1])))
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--seeds", "1",
                 "--out", str(out)]) == 0
    rows = (out / "metrics.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == [
        "narma2", "stm_tau00", "stm_tau01"]
    assert (out / "manifest_multi_linear_g0.1_r1.json").exists()


def test_a_seed_of_any_size_runs(tmp_path, config_file):
    seed = 10**400
    out = tmp_path / "out"
    assert main(["run", "--config", config_file, "--task", "narma2",
                 "--seeds", "2", "--seed", str(seed), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest_narma2_linear_g0.1_r1.json")
                          .read_text())
    assert manifest["base_seed"] == seed
    assert main(["report", "--out", str(out)]) == 0


def test_metrics_do_not_depend_on_the_blas_thread_environment(tmp_path):
    # Every array evolves at one BLAS thread whatever the environment asks
    # for; OpenBLAS rounds a two-thread product differently.
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"n_qubits": 8, "n_pre": 30, "n_fb": 30,
                                "n_test": 10}))
    src = str(Path(spinqrc.__file__).resolve().parents[1])
    written = []
    for threads in ("1", "2"):
        out = tmp_path / f"out{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, (src, os.environ.get("PYTHONPATH")))))
        subprocess.run([sys.executable, "-m", "spinqrc.cli", "run", "--config",
                        str(path), "--task", "narma2", "--seeds", "2",
                        "--out", str(out)], env=env, check=True,
                       capture_output=True)
        written.append((out / "metrics.csv").read_bytes())
    assert written[0] == written[1]


def test_run_defaults_to_narma2(tmp_path, config_file):
    out = tmp_path / "out"
    assert main(["run", "--config", config_file, "--seeds", "1",
                 "--out", str(out)]) == 0
    rows = (out / "metrics.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["narma2"]


def test_too_many_qubits_exit_2_before_simulating(tmp_path, capsys,
                                                  monkeypatch):
    calls = count_simulations(monkeypatch)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dict(PHASES, n_qubits=11)))
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--seeds", "1",
                 "--out", str(out)]) == EXIT_CONFIG
    assert "n_qubits must be an integer in [2, 10], got 11" in \
        capsys.readouterr().err
    assert calls == []
    assert not out.exists()


def test_report_reemits_metrics(tmp_path, config_file):
    out = tmp_path / "out"
    main(["run", "--config", config_file, "--task", "narma2", "--seeds", "2",
          "--out", str(out)])
    original = (out / "metrics.csv").read_bytes()
    (out / "metrics.csv").unlink()
    assert main(["report", "--out", str(out)]) == 0
    assert (out / "metrics.csv").read_bytes() == original


@pytest.mark.parametrize("config, fragment", [
    ({"n_qubits": "x", "gama": 3}, "'gama'"),
    ({"n_qubits": "x"}, "n_qubits must be an integer in [2, 10], got 'x'")],
    ids=["misspelled_key", "string_n_qubits"])
def test_report_refuses_a_manifest_with_a_bad_config(tmp_path, capsys, config,
                                                     fragment):
    # Its one row is well formed, but no config produces it.
    path = tmp_path / "manifest_x.json"
    path.write_text(json.dumps(dict(
        MANIFEST, config=config,
        metrics={"narma2|nowhere|per_qubit|7.5": ROW})))
    out = tmp_path / "out"
    assert main(["report", "--config", str(path), "--out", str(out)]) \
        == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot load manifest {path}: ")
    assert fragment in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["run", "--task", "stm", "--seeds", "2"],
    ["run", "--task", "narma2", "--seeds", "2"],
    ["sweep", "--seeds", "1"], ["esn", "--seeds", "3"]],
    ids=lambda argv: "-".join(argv[:3]))
def test_report_rebuilds_every_written_manifest(tmp_path, config_file, argv):
    # `run` on a small array; `sweep` and `esn` at their defaults.
    config = ["--config", config_file] if argv[0] == "run" else []
    out = tmp_path / "out"
    assert main([*argv, *config, "--out", str(out)]) == 0
    written = (out / "metrics.csv").read_bytes()
    (out / "metrics.csv").unlink()
    assert main(["report", "--out", str(out)]) == 0
    assert (out / "metrics.csv").read_bytes() == written


def test_report_refuses_colliding_rows(tmp_path, capsys, config_file):
    out = tmp_path / "out"
    main(["run", "--config", config_file, "--task", "narma2", "--seeds", "1",
          "--out", str(out)])
    original = (out / "metrics.csv").read_bytes()
    manifest = out / "manifest_narma2_linear_g0.1_r1.json"
    (out / "manifest_copy.json").write_bytes(manifest.read_bytes())
    capsys.readouterr()
    assert main(["report", "--out", str(out)]) == EXIT_CONFIG
    assert "narma2,linear,per_qubit,0.1" in capsys.readouterr().err
    assert (out / "metrics.csv").read_bytes() == original


def test_report_into_uncreatable_directory_exits_2(tmp_path, config_file):
    out = tmp_path / "out"
    main(["run", "--config", config_file, "--task", "narma2", "--seeds", "1",
          "--out", str(out)])
    (tmp_path / "blocker").write_text("")
    manifest = out / "manifest_narma2_linear_g0.1_r1.json"
    assert main(["report", "--config", str(manifest),
                 "--out", str(tmp_path / "blocker" / "sub")]) == EXIT_CONFIG


def test_failed_write_keeps_the_old_file(tmp_path, capsys, config_file,
                                         monkeypatch):
    out = tmp_path / "out"
    main(["run", "--config", config_file, "--task", "narma2", "--seeds", "1",
          "--out", str(out)])
    (out / "metrics.csv").write_text("old\n")
    before = sorted(out.iterdir())

    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", failing_replace)
    assert main(["report", "--out", str(out)]) == EXIT_CONFIG
    assert f"cannot write {out / 'metrics.csv'}" in capsys.readouterr().err
    assert (out / "metrics.csv").read_text() == "old\n"
    assert sorted(out.iterdir()) == before
    monkeypatch.undo()
    # An OSError from the file system exits 2 the same way.
    (out / "metrics.csv").unlink()
    (out / "metrics.csv").mkdir()
    assert main(["report", "--out", str(out)]) == EXIT_CONFIG
    assert "metrics.csv" in capsys.readouterr().err
    assert sorted(out.iterdir()) == before


def test_report_without_manifests_fails(tmp_path):
    assert main(["report", "--out", str(tmp_path)]) == EXIT_CONFIG


def test_bad_gamma_exits_2(tmp_path):
    code = main(["run", "--gamma", "1.5", "--seeds", "1",
                 "--out", str(tmp_path)])
    assert code == EXIT_CONFIG


def test_missing_config_exits_2(tmp_path):
    code = main(["run", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path)])
    assert code == EXIT_CONFIG


def test_malformed_config_exits_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["run", "--config", str(path),
                 "--out", str(tmp_path)]) == EXIT_CONFIG


# Files that Python's JSON parsing refuses with another error than a
# JSONDecodeError: nesting past the recursion limit, an integer past the
# digit limit, and bytes that are not UTF-8.
UNPARSABLE = {"nested": b'{"seed": ' + b"[" * 2000 + b"]" * 2000 + b"}",
              "long_integer": b'{"seed": 1' + b"0" * 4999 + b"}",
              "not_utf8": b"\xff\xfe{}"}


@pytest.mark.parametrize("content", UNPARSABLE.values(), ids=UNPARSABLE)
@pytest.mark.parametrize("command", ["run", "sweep", "esn", "report"])
def test_a_file_python_cannot_parse_exits_2(tmp_path, capsys, command,
                                            content):
    out = tmp_path / "out"
    out.mkdir()
    if command == "report":  # reads every manifest_*.json under --out
        path = out / "manifest_x.json"
        argv = [command, "--out", str(out)]
    else:
        path = tmp_path / "config.json"
        argv = [command, "--config", str(path), "--out", str(out)]
    path.write_bytes(content)
    before = sorted(tmp_path.rglob("*"))
    assert main(argv) == EXIT_CONFIG
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error: cannot read ")
    assert line.count(str(path)) == 1
    assert sorted(tmp_path.rglob("*")) == before


def test_unknown_task_rejected_by_parser(tmp_path):
    with pytest.raises(SystemExit):
        main(["run", "--task", "narma3", "--out", str(tmp_path)])


def test_exit_code_mapping():
    assert exit_code_for(ConfigError("x")) == EXIT_CONFIG
    assert exit_code_for(ValidationError("x")) == EXIT_CONFIG
    assert exit_code_for(StateInvariantError("x")) == EXIT_NUMERICAL
    assert exit_code_for(DivergenceError("x")) == EXIT_NUMERICAL
