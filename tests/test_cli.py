import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spinqrc
from spinqrc import experiment, workers
from spinqrc.cli import EXIT_CONFIG, EXIT_NUMERICAL, exit_code_for, main
from spinqrc.errors import (ConfigError, DivergenceError, StateInvariantError,
                            ValidationError)
from spinqrc.linalg import BLAS_LIBRARIES, load_blas

SMALL = {"n_qubits": 4, "n_pre": 10, "n_fb": 30, "n_test": 10}

# metrics.csv of `spinqrc sweep --seeds 1 --seed 10` and of `spinqrc esn
# --seeds 40 --seed 10` at the commit that froze the benchmark goldens; read
# only, never rewritten by tests.
GOLDENS = Path(__file__).resolve().parents[1] / "perfbench" / "goldens"
SWEEP_GOLDEN = GOLDENS / "sweep_seed10.csv"
ESN_GOLDEN = GOLDENS / "esn_seed10.csv"


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
    # disk carries no trajectory and simulates it afresh, to the same bytes.
    assert calls == [0, 1]
    name = "narma2_linear_g0.1_r1"
    manifest = experiment.ExperimentManifest.from_json(
        (out / f"manifest_{name}.json").read_text())
    assert manifest.trajectory is None
    assert (experiment.trajectory_csv_text(manifest)
            == (out / f"trajectory_{name}.csv").read_text())
    assert calls == [0, 1, 0]


def test_run_rejects_duplicate_stm_delay(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dict(SMALL, stm_delays=[1, 1, 2])))
    out = tmp_path / "out"
    code = main(["run", "--config", str(path), "--task", "stm",
                 "--seeds", "1", "--out", str(out)])
    assert code == EXIT_CONFIG
    assert not out.exists()


@pytest.mark.skipif(load_blas(BLAS_LIBRARIES[0]) is None,
                    reason="numpy carries no bundled OpenBLAS")
def test_simulation_never_imports_scipy():
    script = (
        "import sys\n"
        "import numpy as np\n"
        "import spinqrc.cli\n"
        "from spinqrc.reservoir import (ReservoirConfig, check_density_matrix,\n"
        "                               run_sequence)\n"
        "cfg = ReservoirConfig(n_qubits=2, n_pre=4, n_fb=4, n_test=4)\n"
        "run_sequence(cfg, np.full(cfg.total_steps, 0.3))\n"
        "check_density_matrix(np.eye(4) / 4)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    src = str(Path(spinqrc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


def test_run_is_reproducible(tmp_path, config_file):
    for name in ("a", "b"):
        assert main(["run", "--config", config_file, "--task", "narma2",
                     "--seeds", "2", "--out", str(tmp_path / name)]) == 0
    assert ((tmp_path / "a" / "metrics.csv").read_bytes()
            == (tmp_path / "b" / "metrics.csv").read_bytes())


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
    cfg = dict(SMALL)
    cfg["sweep"] = {"topologies": ["linear"], "gammas": [0.1, 0.01],
                    "readouts": [1], "tasks": ["narma2"], "n_seeds": 1}
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
    cfg = dict(SMALL, trajectory=True)
    cfg["sweep"] = {"topologies": ["linear"], "gammas": [0.1],
                    "readouts": [1, 2], "tasks": ["narma2"], "n_seeds": 1}
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(path), "--out", str(out)]) == 0
    assert len(list(out.glob("trajectory_*.csv"))) == 2
    assert len(calls) == 1  # both readout cells share one simulation


def test_sweep_rejects_duplicate_gamma(tmp_path):
    cfg = dict(SMALL)
    cfg["sweep"] = {"gammas": [0.1, 0.1], "tasks": ["narma2"], "n_seeds": 1}
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    code = main(["sweep", "--config", str(path), "--out", str(out)])
    assert code == EXIT_CONFIG
    assert not out.exists()


def test_default_sweep_matches_frozen_golden(tmp_path):
    assert main(["sweep", "--seeds", "1", "--seed", "10",
                 "--out", str(tmp_path)]) == 0
    assert (tmp_path / "metrics.csv").read_bytes() == SWEEP_GOLDEN.read_bytes()


def test_default_esn_matches_frozen_golden(tmp_path):
    assert main(["esn", "--seeds", "40", "--seed", "10",
                 "--out", str(tmp_path)]) == 0
    assert (tmp_path / "metrics.csv").read_bytes() == ESN_GOLDEN.read_bytes()


@pytest.mark.parametrize("command, cfg, unknown", [
    ("run", {"n_qbits": 4, "gama": 0.5, "n_pre": 10, "n_fb": 30,
             "n_test": 10}, "gama"),
    ("sweep", dict(SMALL, sweep={"tasks": ["narma2"], "variants": [1, 3]}),
     "variants"),
    ("esn", {"esn": dict(n_nodes=4, n_pre=10, n_fb=30, n_test=10,
                         variant=[1])}, "variant"),
])
def test_unknown_config_key_exits_2(tmp_path, capsys, command, cfg, unknown):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    code = main([command, "--config", str(path), "--task", "narma2",
                 "--seeds", "1", "--out", str(out)])
    assert code == EXIT_CONFIG
    assert repr(unknown) in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, cfg", [
    ("run", dict(SMALL, n_qubits="4")),
    ("run", dict(SMALL, topology="rign")),
    ("esn", {"esn": dict(n_nodes=4, n_pre=10, n_fb=30, n_test=10,
                         variants=[1, 1])}),
], ids=["string_n_qubits", "misspelled_topology", "repeated_variant"])
def test_bad_config_value_exits_2(tmp_path, capsys, command, cfg):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    code = main([command, "--config", str(path), "--task", "narma2",
                 "--seeds", "2", "--out", str(out)])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_esn_subcommand(tmp_path):
    cfg = {"esn": dict(n_nodes=4, n_pre=10, n_fb=30, n_test=10,
                       variants=[1, 3])}
    path = tmp_path / "esn.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    code = main(["esn", "--config", str(path), "--task", "narma2",
                 "--seeds", "2", "--out", str(out)])
    assert code == 0
    rows = (out / "metrics.csv").read_text().splitlines()
    assert len(rows) == 3
    assert rows[1].startswith("narma2,esn1,")
    assert rows[2].startswith("narma2,esn3,")


def test_report_reemits_metrics(tmp_path, config_file):
    out = tmp_path / "out"
    main(["run", "--config", config_file, "--task", "narma2", "--seeds", "2",
          "--out", str(out)])
    original = (out / "metrics.csv").read_bytes()
    (out / "metrics.csv").unlink()
    assert main(["report", "--out", str(out)]) == 0
    assert (out / "metrics.csv").read_bytes() == original


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


def test_unknown_task_rejected_by_parser(tmp_path):
    with pytest.raises(SystemExit):
        main(["run", "--task", "narma3", "--out", str(tmp_path)])


def test_exit_code_mapping():
    assert exit_code_for(ConfigError("x")) == EXIT_CONFIG
    assert exit_code_for(ValidationError("x")) == EXIT_CONFIG
    assert exit_code_for(StateInvariantError("x")) == EXIT_NUMERICAL
    assert exit_code_for(DivergenceError("x")) == EXIT_NUMERICAL
