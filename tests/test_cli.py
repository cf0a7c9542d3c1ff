import json
import os
import subprocess
import sys
import time
from itertools import product

import pytest
from conftest import FROZEN_JOBS, PHASES, SMALL, child_env, frozen_under

from spinqrc import experiment, reservoir, workers
from spinqrc.cli import EXIT_CONFIG, EXIT_NUMERICAL, exit_code_for
from spinqrc.errors import (ConfigError, DivergenceError, StateInvariantError,
                            ValidationError)
from spinqrc.linalg import BLAS_LIBRARIES, load_blas
from spinqrc.qubits import ground_density
from spinqrc.reservoir import Topology

def test_run_simulates_each_member_once(run_cli, simulations):
    code, out = run_cli(["run", "--task", "narma2", "--seeds", "2"], SMALL)
    assert code == 0
    # The trajectory report reuses member 0's run; a manifest read back from
    # disk carries no trajectory, and the report refuses it.
    assert [config.coupling_seed for config, _ in simulations] == [0, 1]
    manifest = experiment.ExperimentManifest.from_json(experiment.read_json(
        out / "manifest_narma2_linear_g0.1_r1.json", "manifest"))
    assert manifest.trajectory is None
    with pytest.raises(ConfigError, match="run_experiment"):
        experiment.trajectory_csv_text(manifest)
    assert len(simulations) == 2


def test_run_rejects_duplicate_stm_delay(run_cli):
    code, out = run_cli(["run", "--task", "stm", "--seeds", "1"],
                        dict(SMALL, stm_delays=[1, 1, 2]))
    assert code == EXIT_CONFIG and not out.exists()


def test_a_long_list_of_unhashable_entries_exits_2_at_once(run_cli, capsys):
    # 20,000 one-element lists (a 169 KB file): the entry check rejects the
    # first, with no duplicate test comparing them pairwise before it.
    cfg = dict(SMALL, stm_delays=[[d] for d in range(20_000)])
    started = time.monotonic()
    code, out = run_cli(["run", "--task", "stm", "--seeds", "1"], cfg)
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
    done = subprocess.run([sys.executable, "-c", script], env=child_env(),
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


def test_cli_never_imports_numpy_random(tmp_path):
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
    config = tmp_path / "config.json"
    config.write_text(json.dumps(SMALL))
    done = subprocess.run(
        [sys.executable, "-c", script, str(config), str(tmp_path / "out")],
        env=child_env(), capture_output=True, text=True, check=True)
    assert done.stdout.splitlines()[-1] == "[]"
    for variant in (1, 3, 5):
        assert (tmp_path / "out" / f"manifest_stm_esn{variant}.json").exists()


def test_nonhermitian_start_state_exits_3(run_cli, capsys, monkeypatch):
    def skewed_ground_density(n_qubits):
        rho = ground_density(n_qubits).astype(complex)
        rho[0, 1] = 1e-6  # trace 1, not Hermitian
        return rho

    monkeypatch.setattr(reservoir, "ground_density", skewed_ground_density)
    code, out = run_cli(["run", "--task", "narma2", "--seeds", "2"], SMALL)
    assert code == EXIT_NUMERICAL
    assert capsys.readouterr().err == (
        "error: state is not Hermitian within tolerance before step 0 "
        "(member: topology linear, n_qubits 4, gamma 0.1, coupling_seed 0)\n")
    assert not (out / "metrics.csv").exists()


def test_sweep_trajectories_reuse_simulations(run_cli, simulations):
    cfg = dict(SMALL, trajectory=True, seeds=1, tasks=["narma2"])
    cfg["sweep"] = {"topologies": ["linear"], "gammas": [0.1],
                    "readouts": [1, 2]}
    code, out = run_cli(["sweep"], cfg)
    assert code == 0
    assert len(list(out.glob("trajectory_*.csv"))) == 2
    assert len(simulations) == 1  # both readout cells share one simulation


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


def test_invariant_error_in_an_esn_member_names_it(run_cli, capsys,
                                                   monkeypatch):
    monkeypatch.setattr(workers, "_available_cpus", lambda: 1)
    run_esn = experiment.run_esn

    def failing(config, inputs):
        if (config.variant, config.weight_seed) == (3, 1):
            raise StateInvariantError("state left its bounds")
        return run_esn(config, inputs)

    monkeypatch.setattr(experiment, "run_esn", failing)
    code, out = run_cli(["esn", "--task", "narma2", "--seeds", "2"],
                        dict(PHASES, esn=dict(n_nodes=4)))
    assert code == EXIT_NUMERICAL
    assert capsys.readouterr().err == (
        "error: state left its bounds (member: variant 3, weight_seed 1)\n")
    assert not out.exists()


def test_numerical_failure_in_a_worker_exits_3(run_cli, capsys, monkeypatch):
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
    code, out = run_cli(["sweep"], cfg)
    assert code == 3
    assert capsys.readouterr().err == (
        "error: trace deviates from 1 by nan at step 0 "
        "(member: topology ring, n_qubits 4, gamma 0.1, coupling_seed 0)\n")
    assert not (out / "metrics.csv").exists()


@pytest.mark.parametrize("argv, cfg, error", [
    # The STM drive's 10**17 bits are allocated before they are drawn, and
    # the NARMA drive's first array needs 800 PB, more than any address
    # space holds, so either allocation fails at once.
    (["run", "--task", "stm"], {"n_pre": 10**17}, "out of memory: "),
    (["run", "--task", "narma2"], {"n_pre": 10**17}, "out of memory: "),
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
], ids=["stm_drive", "narma_drive", "esn_weights", "seeds",
        "stm_drive_past_numpy",
        "narma_drive_past_numpy", "esn_weights_past_numpy", "huge_n_qubits"])
def test_a_size_no_run_can_hold_exits_2_at_once(run_cli, capsys, argv, cfg,
                                                error):
    started = time.monotonic()
    code, out = run_cli(argv, cfg)
    assert code == EXIT_CONFIG
    assert time.monotonic() - started < 30
    err = capsys.readouterr().err
    assert err.startswith(f"error: {error}")
    assert err.count("\n") == 1 and err.endswith("\n")
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


# A config key that the subcommand never reads, by its name. The ensemble
# size, the delays, the tasks and the phase lengths have one key each, at
# the top level.
UNKNOWN_KEYS = {
    "gama": ("run", dict(SMALL, gama=0.5)),
    "variants": ("sweep", dict(SMALL, sweep={"variants": [1, 3]})),
    "variant": ("esn", dict(PHASES, esn=dict(n_nodes=4, variant=[1]))),
    "n_seeds": ("sweep", dict(SMALL, sweep={"n_seeds": 3})),
    "stm_delays": ("sweep", dict(SMALL, sweep={"stm_delays": [1]})),
    "task": ("run", dict(SMALL, task="stm")),
    "tasks": ("sweep", dict(SMALL, sweep={"tasks": ["stm"]})),
    **{key: ("esn", {"esn": {key: 10}}) for key in PHASES}}


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
    ("sweep", dict(SMALL, seeds=1, tasks=["narma2"],
                   sweep={"gammas": [0.1, 0.1]}),
     "sweep axis gammas has a duplicate value: [0.1, 0.1]"),
    ("sweep", dict(SMALL, trajectory="false"),
     "trajectory must be true or false, got 'false'"),
    ("esn", dict(SMALL, tasks=[]), "tasks is empty"),
    ("esn", dict(PHASES, tasks=["narma2", "narma2"], esn=dict(n_nodes=4)),
     "tasks has a duplicate value: ['narma2', 'narma2']"),
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
    *((command, cfg, f"error: unknown key(s) {key!r} in ")
      for key, (command, cfg) in UNKNOWN_KEYS.items()),
], ids=["string_n_qubits", "misspelled_topology", "huge_theta0",
        "repeated_variant",
        "no_variants", "scalar_variants", "huge_variant", "bool_variant",
        "short_n_fb",
        "short_n_test_for_stm", *BAD_MANIFEST_VALUES,
        "sweep_string_ridge", "sweep_fractional_n_seeds",
        "sweep_scalar_gammas", "sweep_string_topologies",
        "sweep_nested_gamma", "sweep_bool_readout", "sweep_repeated_gamma",
        "sweep_string_trajectory", "esn_empty_tasks", "esn_repeated_task",
        "esn_negative_seed", *BAD_STORED_METRICS,
        "report_manifest_list",
        "report_unknown_config_key", "report_config_list",
        "report_unknown_manifest_key", "report_missing_tasks",
        "report_esn_readout", "report_reservoir_variants",
        *(f"unknown_{name}" for name in UNKNOWN_KEYS)])
def test_bad_config_value_exits_2(run_cli, capsys, command, cfg, fragment):
    flags = []
    if command != "report":  # which reads only --config and --out
        flags += [] if "tasks" in cfg else ["--task", "narma2"]
        flags += [] if "seeds" in cfg else ["--seeds", "2"]
    code, out = run_cli([command, *flags], cfg)
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
def test_report_drops_stored_stamps(run_cli, stored):
    written = []
    for manifest in (stored, dict(MANIFEST, metrics={ROW_ID: ROW})):
        code, out = run_cli(["report"], manifest, out=str(len(written)))
        assert code == 0
        written.append((out / "metrics.csv").read_bytes())
    assert written[0] == written[1]


STM_ROWS = tuple(f"stm_tau{tau:02d}" for tau in range(11))  # delays 0-10
NARMA_ROWS = ("narma2", "narma5", "narma10", "narma15", "narma20")
# The cells of the default sweep grid, named as their files are.
GRID = [f"multi_{topology}_g{gamma}_r{readout}" for topology, gamma, readout
        in product(("linear", "ring"), ("0.1", "0.01"), (1, 2))]
GRID_ROWS = sorted(product((*NARMA_ROWS, *STM_ROWS), ("linear", "ring"),
                           ("averaged", "per_qubit"), ("0.1", "0.01")))
ESN_FILES = {"metrics.csv",
             *(f"manifest_multi_esn{v}.json" for v in (1, 3, 5))}
ESN_ROWS = sorted(product((*NARMA_ROWS[:4], *STM_ROWS),
                          ("esn1", "esn3", "esn5"), ("per_qubit",), ("",)))


def one_cell(cell):
    """The files that ``run`` writes for its one cell."""
    return {"metrics.csv", f"manifest_{cell}.json", f"trajectory_{cell}.csv"}


# What a run writes: its argv and config, the names of every file it
# writes, the keys (the first four columns) of the rows of its metrics.csv
# in order, and fields of its manifests, by file name.
RUNS = {
    "run_narma2": (
        ["run", "--task", "narma2", "--seeds", "2"], SMALL,
        one_cell("narma2_linear_g0.1_r1"),
        [("narma2", "linear", "per_qubit", "0.1")], {}),
    "run_stm": (
        ["run", "--task", "stm", "--seeds", "2"], SMALL,
        one_cell("stm_linear_g0.1_r1"),
        [(row, "linear", "per_qubit", "0.1") for row in STM_ROWS], {}),
    "run_flags": (
        ["run", "--task", "narma2", "--topology", "ring", "--gamma", "0.01",
         "--readout", "2", "--seeds", "1"], SMALL,
        one_cell("narma2_ring_g0.01_r2"),
        [("narma2", "ring", "averaged", "0.01")],
        {"manifest_narma2_ring_g0.01_r2.json": {
            "config": dict(SMALL, topology="ring", gamma=0.01),
            "readout": 2}}),
    "run_top_level_tasks": (
        ["run", "--seeds", "1"],
        dict(SMALL, tasks=["stm", "narma2"], stm_delays=[0, 1]),
        one_cell("multi_linear_g0.1_r1"),
        [(row, "linear", "per_qubit", "0.1")
         for row in ("narma2", "stm_tau00", "stm_tau01")], {}),
    # With no task given, `run` runs narma2.
    "run_default_task": (
        ["run", "--seeds", "1"], SMALL, one_cell("narma2_linear_g0.1_r1"),
        [("narma2", "linear", "per_qubit", "0.1")], {}),
    "run_huge_seed": (
        ["run", "--task", "narma2", "--seeds", "2", "--seed", str(10**400)],
        SMALL, one_cell("narma2_linear_g0.1_r1"),
        [("narma2", "linear", "per_qubit", "0.1")],
        {"manifest_narma2_linear_g0.1_r1.json": {"base_seed": 10**400}}),
    "sweep_trajectories": (
        ["sweep", "--seeds", "1"], dict(SMALL, trajectory=True),
        {"metrics.csv", *(f"manifest_{cell}.json" for cell in GRID),
         *(f"trajectory_{cell}.csv" for cell in GRID)}, GRID_ROWS, {}),
    "sweep_default": (
        ["sweep", "--seeds", "1"], None,
        {"metrics.csv", *(f"manifest_{cell}.json" for cell in GRID)},
        GRID_ROWS, {}),
    "sweep_grid": (
        ["sweep"], dict(SMALL, seeds=1, tasks=["narma2"],
                        sweep={"topologies": ["linear"], "gammas": [0.1, 0.01],
                               "readouts": [1]}),
        {"metrics.csv", "manifest_narma2_linear_g0.01_r1.json",
         "manifest_narma2_linear_g0.1_r1.json"},
        [("narma2", "linear", "per_qubit", gamma) for gamma in ("0.01", "0.1")],
        {}),
    "sweep_top_level_stm_delays": (
        ["sweep", "--task", "stm"],
        dict(SMALL, seeds=1, stm_delays=[1, 2],
             sweep={"topologies": ["linear"], "gammas": [0.1],
                    "readouts": [1]}),
        {"metrics.csv", "manifest_stm_linear_g0.1_r1.json"},
        [(row, "linear", "per_qubit", "0.1")
         for row in ("stm_tau01", "stm_tau02")], {}),
    # Each axis flag overrides its axis in the file.
    "sweep_flags": (
        ["sweep", "--topology", "ring", "--gamma", "0.5", "--readout", "2",
         "--seeds", "1"],
        dict(SMALL, tasks=["narma2"], sweep={"gammas": [0.1, 0.01]}),
        {"metrics.csv", "manifest_narma2_ring_g0.5_r2.json"},
        [("narma2", "ring", "averaged", "0.5")], {}),
    "esn": (
        ["esn", "--seeds", "2"], dict(PHASES, esn={"n_nodes": 4}),
        ESN_FILES, ESN_ROWS, {}),
    "esn_default": (["esn", "--seeds", "3"], None, ESN_FILES, ESN_ROWS, {}),
    # One manifest, so one cell, per variant.
    "esn_variants": (
        ["esn", "--task", "narma2", "--seeds", "2"],
        dict(PHASES, esn=dict(n_nodes=4, variants=[1, 3])),
        {"metrics.csv", "manifest_narma2_esn1.json",
         "manifest_narma2_esn3.json"},
        [("narma2", f"esn{v}", "per_qubit", "") for v in (1, 3)],
        {f"manifest_narma2_esn{v}.json": {
            "config": dict(PHASES, n_nodes=4, variant=v), "readout": 1}
         for v in (1, 3)}),
    "esn_top_level_phases": (
        ["esn", "--task", "narma2", "--seeds", "1"],
        {"n_pre": 3, "n_fb": 20, "n_test": 7, "esn": {"variants": [1]}},
        {"metrics.csv", "manifest_narma2_esn1.json"},
        [("narma2", "esn1", "per_qubit", "")],
        {"manifest_narma2_esn1.json": {
            "config": {"n_pre": 3, "n_fb": 20, "n_test": 7, "variant": 1}}}),
}


@pytest.mark.parametrize("argv, cfg, files, rows, pins", RUNS.values(),
                         ids=list(RUNS))
def test_a_run_writes_what_its_case_lists(run_cli, argv, cfg, files, rows,
                                          pins):
    written = []
    for name in ("a", "b"):
        code, out = run_cli(argv, cfg, out=name)
        assert code == 0
        written.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert written[0] == written[1]
    assert set(written[1]) == files
    header, *lines = written[1]["metrics.csv"].decode().splitlines()
    assert header == ("task,topology,readout_type,gamma,seed_count,"
                      "mean_metric,std_metric")
    assert [tuple(line.split(",")[:4]) for line in lines] == rows
    for file, fields in pins.items():
        manifest = json.loads(written[1][file])
        assert {key: manifest[key] for key in fields} == fields
    # The manifests alone give metrics.csv back.
    (out / "metrics.csv").unlink()
    assert run_cli(["report"], out=name) == (0, out)
    assert (out / "metrics.csv").read_bytes() == written[1]["metrics.csv"]


RUN_ARGVS = [["run", "--task", "stm", "--seeds", "2"],
             ["run", "--task", "narma2", "--seeds", "2"]]


@pytest.mark.parametrize("argv", RUN_ARGVS, ids=["run", "run_narma2"])
def test_two_runs_write_identical_files(run_cli, argv):
    written = []
    for name in ("a", "b"):
        code, out = run_cli(argv, SMALL, out=name)
        assert code == 0
        written.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert written[0] == written[1]


@pytest.mark.parametrize("argv", RUN_ARGVS,
                         ids=lambda argv: "-".join(argv[:3]))
def test_report_rebuilds_every_written_manifest(run_cli, argv):
    code, out = run_cli(argv, SMALL)
    assert code == 0
    written = (out / "metrics.csv").read_bytes()
    (out / "metrics.csv").unlink()
    assert run_cli(["report"]) == (0, out)
    assert (out / "metrics.csv").read_bytes() == written


def test_report_reemits_metrics(run_cli):
    _, out = run_cli(["run", "--task", "narma2", "--seeds", "2"], SMALL)
    original = (out / "metrics.csv").read_bytes()
    (out / "metrics.csv").unlink()
    assert run_cli(["report"]) == (0, out)
    assert (out / "metrics.csv").read_bytes() == original


@pytest.mark.parametrize("command, cfg, where, got", [
    ("run", [SMALL], "config file {}",
     "[{'n_fb': 30, 'n_pre': 10, 'n_qubits': 4, 'n_test': 10}]"),
    ("sweep", dict(SMALL, sweep=[1]), "the sweep block of {}", "[1]"),
    ("esn", dict(PHASES, esn="big"), "the esn block of {}", "'big'"),
], ids=["file", "sweep_block", "esn_block"])
def test_a_config_that_is_not_an_object_exits_2(tmp_path, run_cli, capsys,
                                                command, cfg, where, got):
    code, out = run_cli([command, "--task", "narma2", "--seeds", "1"], cfg)
    assert code == EXIT_CONFIG
    path = tmp_path / "config.json"
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
def test_repeated_key_exits_2(run_cli, capsys, command, text, key):
    flags = [] if command == "report" else ["--task", "narma2", "--seeds", "1"]
    code, out = run_cli([command, *flags], text.encode())
    assert code == EXIT_CONFIG
    assert f"repeated key {key!r}" in capsys.readouterr().err
    assert not out.exists()


# Each an option the subcommand never reads, or a value its parser refuses
# (an unknown task).
@pytest.mark.parametrize("argv", [
    ["esn", "--gamma", "0.5"], ["esn", "--topology", "ring"],
    ["esn", "--readout", "2"], ["report", "--seed", "1"],
    ["report", "--seeds", "3"], ["report", "--task", "stm"],
    ["report", "--topology", "ring"], ["report", "--gamma", "0.1"],
    ["report", "--readout", "1"], ["run", "--task", "narma3"]],
    ids=lambda argv: argv[0] + argv[1])
def test_option_the_subcommand_never_reads_is_rejected(tmp_path, run_cli,
                                                       argv):
    with pytest.raises(SystemExit) as exc:
        run_cli(argv)
    assert exc.value.code == EXIT_CONFIG
    assert not (tmp_path / "out").exists()


def test_metrics_do_not_depend_on_the_blas_thread_environment(tmp_path):
    # U is built, and every array evolves, at one BLAS thread whatever the
    # environment asks for. At two threads OpenBLAS's `eigh`, which builds
    # U, rounds differently at this dim 256 on every kernel tried, and
    # under Haswell the kernel's products do too, from dim 64 on.
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"n_qubits": 8, "n_pre": 30, "n_fb": 30,
                                "n_test": 10}))
    written = []
    for threads in ("1", "2"):
        out = tmp_path / f"out{threads}"
        subprocess.run([sys.executable, "-m", "spinqrc.cli", "run", "--config",
                        str(path), "--task", "narma2", "--seeds", "2",
                        "--out", str(out)],
                       env=dict(child_env(), OPENBLAS_NUM_THREADS=threads),
                       check=True, capture_output=True)
        written.append((out / "metrics.csv").read_bytes())
    assert written[0] == written[1]


def test_too_many_qubits_exit_2_before_simulating(run_cli, capsys,
                                                  simulations):
    code, out = run_cli(["run", "--seeds", "1"], dict(PHASES, n_qubits=11))
    assert code == EXIT_CONFIG
    assert "n_qubits must be an integer in [2, 10], got 11" in \
        capsys.readouterr().err
    assert simulations == []
    assert not out.exists()


@pytest.mark.parametrize("config, fragment", [
    ({"n_qubits": "x", "gama": 3}, "'gama'"),
    ({"n_qubits": "x"}, "n_qubits must be an integer in [2, 10], got 'x'")],
    ids=["misspelled_key", "string_n_qubits"])
def test_report_refuses_a_manifest_with_a_bad_config(tmp_path, run_cli, capsys,
                                                     config, fragment):
    # Its one row is well formed, but no config produces it.
    code, out = run_cli(["report"], dict(
        MANIFEST, config=config,
        metrics={"narma2|nowhere|per_qubit|7.5": ROW}))
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(
        f"error: cannot load manifest {tmp_path / 'config.json'}: ")
    assert fragment in err
    assert not out.exists()


def test_report_refuses_colliding_rows(run_cli, capsys):
    _, out = run_cli(["run", "--task", "narma2", "--seeds", "1"], SMALL)
    original = (out / "metrics.csv").read_bytes()
    manifest = out / "manifest_narma2_linear_g0.1_r1.json"
    (out / "manifest_copy.json").write_bytes(manifest.read_bytes())
    capsys.readouterr()
    assert run_cli(["report"]) == (EXIT_CONFIG, out)
    assert "narma2,linear,per_qubit,0.1" in capsys.readouterr().err
    assert (out / "metrics.csv").read_bytes() == original


def test_report_into_uncreatable_directory_exits_2(tmp_path, run_cli):
    _, out = run_cli(["run", "--task", "narma2", "--seeds", "1"], SMALL)
    (tmp_path / "blocker").write_text("")
    manifest = out / "manifest_narma2_linear_g0.1_r1.json"
    code, _ = run_cli(["report", "--config", str(manifest)], out="blocker/sub")
    assert code == EXIT_CONFIG


def test_failed_write_keeps_the_old_file(run_cli, capsys, monkeypatch):
    _, out = run_cli(["run", "--task", "narma2", "--seeds", "1"], SMALL)
    (out / "metrics.csv").write_text("old\n")
    before = sorted(out.iterdir())

    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", failing_replace)
    assert run_cli(["report"]) == (EXIT_CONFIG, out)
    assert f"cannot write {out / 'metrics.csv'}" in capsys.readouterr().err
    assert (out / "metrics.csv").read_text() == "old\n"
    assert sorted(out.iterdir()) == before
    monkeypatch.undo()
    # An OSError from the file system exits 2 the same way.
    (out / "metrics.csv").unlink()
    (out / "metrics.csv").mkdir()
    assert run_cli(["report"]) == (EXIT_CONFIG, out)
    assert "metrics.csv" in capsys.readouterr().err
    assert sorted(out.iterdir()) == before


def test_report_without_manifests_fails(run_cli):
    assert run_cli(["report"], out=".")[0] == EXIT_CONFIG


def test_bad_gamma_exits_2(run_cli):
    code, _ = run_cli(["run", "--gamma", "1.5", "--seeds", "1"])
    assert code == EXIT_CONFIG


def test_missing_config_exits_2(tmp_path, run_cli):
    code, _ = run_cli(["run", "--config", str(tmp_path / "nope.json")])
    assert code == EXIT_CONFIG


# Files that Python's JSON parsing refuses: text that is not JSON, nesting
# past the recursion limit, an integer past the digit limit, and bytes
# that are not UTF-8.
UNPARSABLE = {"not_json": b"{not json",
              "nested": b'{"seed": ' + b"[" * 2000 + b"]" * 2000 + b"}",
              "long_integer": b'{"seed": 1' + b"0" * 4999 + b"}",
              "not_utf8": b"\xff\xfe{}"}


@pytest.mark.parametrize("content", UNPARSABLE.values(), ids=UNPARSABLE)
@pytest.mark.parametrize("command", ["run", "sweep", "esn", "report"])
def test_a_file_python_cannot_parse_exits_2(tmp_path, run_cli, capsys,
                                            command, content):
    out = tmp_path / "out"
    out.mkdir()
    if command == "report":  # reads every manifest_*.json under --out
        path = out / "manifest_x.json"
        path.write_bytes(content)
        code, _ = run_cli([command])
    else:
        path = tmp_path / "config.json"
        code, _ = run_cli([command], content)
    assert code == EXIT_CONFIG
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error: cannot read ")
    assert line.count(str(path)) == 1
    assert sorted(tmp_path.rglob("*")) == sorted({out, path})


def test_exit_code_mapping():
    assert exit_code_for(ConfigError("x")) == EXIT_CONFIG
    assert exit_code_for(ValidationError("x")) == EXIT_CONFIG
    assert exit_code_for(StateInvariantError("x")) == EXIT_NUMERICAL
    assert exit_code_for(DivergenceError("x")) == EXIT_NUMERICAL
