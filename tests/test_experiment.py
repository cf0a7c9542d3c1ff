import csv
import io
import json
import re

import numpy as np
import pytest

from spinqrc import experiment, workers
from spinqrc.errors import ConfigError
from spinqrc.esn import run_esn
from spinqrc.experiment import (ExperimentManifest, RowStats, SweepGrid,
                                emit_report, metrics_csv_text, parse_task,
                                run_experiment, trajectory_csv_text)
from spinqrc.reservoir import run_sequence

SMALL_RESERVOIR = dict(n_qubits=4, n_pre=10, n_fb=30, n_test=10)
SMALL_ESN = dict(n_nodes=4, n_pre=10, n_fb=30, n_test=10)

FLOAT_13_SIG = re.compile(r"^-?\d\.\d{12}e[+-]\d{2,3}$")


def narma_manifest(**kw):
    fields = dict(kind="reservoir", config=dict(SMALL_RESERVOIR),
                  tasks=("narma2",), n_seeds=2)
    fields.update(kw)
    return ExperimentManifest(**fields)


def count_simulations(monkeypatch):
    """Record the (config, drive) of every run_sequence call, at one worker
    process: calls made in a forked worker would go uncounted here."""
    monkeypatch.setattr(workers, "_available_cpus", lambda: 1)
    calls = []

    def counted(config, inputs):
        calls.append((config, inputs.tobytes()))
        return run_sequence(config, inputs)

    monkeypatch.setattr(experiment, "run_sequence", counted)
    return calls


def esn_manifest(**kw):
    fields = dict(kind="esn", config=dict(SMALL_ESN), tasks=("narma2",),
                  n_seeds=2, variants=(1, 3))
    fields.update(kw)
    return ExperimentManifest(**fields)


def count_esn_runs(monkeypatch):
    """Record the (variant, weight seed, drive) of every run_esn call, at
    one worker process."""
    monkeypatch.setattr(workers, "_available_cpus", lambda: 1)
    calls = []

    def counted(config, inputs):
        calls.append((config.variant, config.weight_seed, inputs.tobytes()))
        return run_esn(config, inputs)

    monkeypatch.setattr(experiment, "run_esn", counted)
    return calls


class TestParseTask:
    def test_accepts_known_names(self):
        for name in ("stm", "narma2", "narma5", "narma10", "narma15",
                     "narma20"):
            parse_task(name)

    def test_rejects_unknown(self):
        with pytest.raises(ConfigError):
            parse_task("narma3")


class TestManifest:
    def test_fills_version_and_timestamp(self):
        m = narma_manifest()
        assert m.version
        assert m.created

    def test_rejects_bad_kind(self):
        with pytest.raises(ConfigError):
            narma_manifest(kind="quantum")

    def test_rejects_bad_task(self):
        with pytest.raises(ConfigError):
            narma_manifest(tasks=("narma7",))

    @pytest.mark.parametrize("kw", [dict(stm_delays=(1, 1, 2)),
                                    dict(variants=(1, 3, 1))])
    def test_rejects_repeated_value(self, kw):
        with pytest.raises(ConfigError, match="duplicate"):
            esn_manifest(**kw)

    def test_json_roundtrip_preserves_metrics(self):
        [m] = run_experiment([narma_manifest()])
        restored = ExperimentManifest.from_json(m.to_json())
        assert restored.tasks == m.tasks
        assert restored.created == m.created
        assert set(restored.metrics) == set(m.metrics)
        for key in m.metrics:
            assert restored.metrics[key].per_seed == m.metrics[key].per_seed

    def test_cell_id_encodes_configuration(self):
        m = narma_manifest(config=dict(SMALL_RESERVOIR, topology="ring",
                                       gamma=0.01), readout=2)
        assert m.cell_id == "narma2_ring_g0.01_r2"


class TestRunExperiment:
    def test_metrics_shape_and_reproducibility(self):
        [a] = run_experiment([narma_manifest()])
        [b] = run_experiment([narma_manifest()])
        assert len(a.metrics) == 1
        stats = next(iter(a.metrics.values()))
        assert stats.task == "narma2"
        assert stats.metric == "nmse"
        assert len(stats.per_seed) == 2
        assert all(v >= 0 for v in stats.per_seed)
        key = next(iter(a.metrics))
        assert a.metrics[key].per_seed == b.metrics[key].per_seed

    def test_stm_produces_one_row_per_delay(self):
        [m] = run_experiment([narma_manifest(tasks=("stm",),
                                             stm_delays=(0, 1, 2))])
        tasks = sorted(s.task for s in m.metrics.values())
        assert tasks == ["stm_tau00", "stm_tau01", "stm_tau02"]
        assert all(s.metric == "stm_capacity" for s in m.metrics.values())

    def test_different_seeds_change_metrics(self):
        [a] = run_experiment([narma_manifest(base_seed=0)])
        [b] = run_experiment([narma_manifest(base_seed=50)])
        va = next(iter(a.metrics.values())).per_seed
        vb = next(iter(b.metrics.values())).per_seed
        assert va != vb

    def test_rejects_unknown_kind(self, monkeypatch):
        calls = count_simulations(monkeypatch)
        bad = narma_manifest()
        bad.kind = "quantum"
        with pytest.raises(ConfigError, match="kind"):
            run_experiment([narma_manifest(), bad])
        assert calls == []

    def test_checks_every_cell_before_simulating(self, monkeypatch):
        calls = count_simulations(monkeypatch)
        bad = esn_manifest(config=dict(SMALL_ESN, n_nodes=0))
        with pytest.raises(ConfigError):
            run_experiment([narma_manifest(), bad])
        assert calls == []

    def test_simulates_each_config_and_drive_once(self, monkeypatch):
        calls = count_simulations(monkeypatch)
        cells = SweepGrid(n_seeds=2).manifests(dict(SMALL_RESERVOIR), 0, 42)
        run_experiment(cells)
        # 2 topologies x 2 gammas x 2 drives (stm, narma) x 2 seeds; the
        # readout axis and the five NARMA orders share trajectories.
        assert len(calls) == 16
        assert len(set(calls)) == 16

    def test_batched_call_matches_cells_run_alone(self):
        grid = SweepGrid(n_seeds=2, stm_delays=(0, 3))
        batched = run_experiment(grid.manifests(dict(SMALL_RESERVOIR), 0, 42))
        alone = grid.manifests(dict(SMALL_RESERVOIR), 0, 42)
        for cell, single in zip(batched, alone):
            run_experiment([single])
            assert cell.metrics.keys() == single.metrics.keys()
            for key, stats in cell.metrics.items():
                assert stats.per_seed == single.metrics[key].per_seed


class TestRunEsnComparison:
    def test_rows_per_variant(self):
        [m] = run_experiment([esn_manifest()])
        topologies = sorted(s.topology for s in m.metrics.values())
        assert topologies == ["esn1", "esn3"]
        assert all(s.readout_type == "per_qubit" for s in m.metrics.values())
        assert all(s.gamma_str == "" for s in m.metrics.values())

    def test_rejects_unknown_variant(self, monkeypatch):
        calls = count_esn_runs(monkeypatch)
        with pytest.raises(ConfigError, match="variant"):
            run_experiment([esn_manifest(variants=(1, 2))])
        assert calls == []

    def test_simulates_each_variant_and_drive_once(self, monkeypatch):
        calls = count_esn_runs(monkeypatch)
        run_experiment([esn_manifest(tasks=("stm", "narma2", "narma5"),
                                     stm_delays=(0, 1))])
        # 2 variants x 2 seeds x 2 drives (stm, narma); NARMA orders share
        # one drive.
        assert len(calls) == 8
        assert len(set(calls)) == 8

    def test_shares_a_call_with_reservoir_cells(self):
        together = run_experiment([narma_manifest(), esn_manifest()])
        for cell, alone in zip(together, (narma_manifest(), esn_manifest())):
            run_experiment([alone])
            assert cell.metrics.keys() == alone.metrics.keys()
            for key, stats in cell.metrics.items():
                assert stats.per_seed == alone.metrics[key].per_seed


class TestSweepGrid:
    def test_manifest_grid_covers_axes(self):
        grid = SweepGrid(topologies=("linear", "ring"), gammas=(0.1, 0.01),
                         readouts=(1, 2), tasks=("narma2",), n_seeds=1)
        manifests = grid.manifests(dict(SMALL_RESERVOIR), base_seed=0,
                                   input_seed=42)
        assert len(manifests) == 8
        combos = {(m.config["topology"], m.config["gamma"], m.readout)
                  for m in manifests}
        assert len(combos) == 8

    def test_cell_guard(self):
        with pytest.raises(ConfigError):
            SweepGrid(gammas=tuple(np.linspace(0.01, 1.0, 60)),
                      tasks=("stm",), stm_delays=tuple(range(100)))

    def test_rejects_empty_axis(self):
        with pytest.raises(ConfigError):
            SweepGrid(topologies=())

    @pytest.mark.parametrize("axis, values", [
        ("topologies", ("ring", "ring")), ("gammas", (0.1, 0.01, 0.1)),
        ("readouts", (1, 1)), ("tasks", ("narma2", "narma2")),
        ("stm_delays", (0, 3, 3))])
    def test_rejects_duplicate_axis_value(self, axis, values):
        with pytest.raises(ConfigError, match="duplicate"):
            SweepGrid(**{axis: values})


class TestMetricsCsv:
    def test_layout_and_precision(self):
        [m] = run_experiment([narma_manifest()])
        text = metrics_csv_text([m])
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["task", "topology", "readout_type", "gamma",
                           "seed_count", "mean_metric", "std_metric"]
        assert len(rows) == 2
        task, topo, rtype, gamma, count, mean, std = rows[1]
        assert (task, topo, rtype, gamma, count) == (
            "narma2", "linear", "per_qubit", "0.1", "2")
        assert FLOAT_13_SIG.match(mean)
        assert FLOAT_13_SIG.match(std)
        assert text.endswith("\n") and "\r" not in text

    def test_rows_sorted_by_key(self):
        grid = SweepGrid(topologies=("ring", "linear"), gammas=(0.1,),
                         readouts=(1,), tasks=("narma2",), n_seeds=1)
        manifests = run_experiment(
            grid.manifests(dict(SMALL_RESERVOIR), 0, 42))
        rows = metrics_csv_text(manifests).splitlines()[1:]
        assert rows == sorted(rows)

    def test_rerun_is_byte_identical(self):
        a = metrics_csv_text(run_experiment([narma_manifest()]))
        b = metrics_csv_text(run_experiment([narma_manifest()]))
        assert a.encode() == b.encode()


class TestTrajectoryCsv:
    def test_layout(self):
        [m] = run_experiment([narma_manifest()])
        text = trajectory_csv_text(m)
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["step", "phase", "s_k", "z_1", "z_2", "z_3", "z_4",
                           "y_pred", "y_target"]
        total = sum(SMALL_RESERVOIR[k] for k in ("n_pre", "n_fb", "n_test"))
        assert len(rows) == total + 1
        phases = [r[1] for r in rows[1:]]
        assert phases[0] == "prep"
        assert phases[-1] == "test"
        assert {"prep", "train", "test"} == set(phases)

    def test_stm_uses_smallest_delay(self):
        [m] = run_experiment([narma_manifest(tasks=("stm",),
                                             stm_delays=(2, 5))])
        rows = list(csv.reader(io.StringIO(trajectory_csv_text(m))))[1:]
        s_vals = np.array([float(r[2]) for r in rows])
        targets = np.array([float(r[-1]) for r in rows])
        assert np.all(targets[2:] == s_vals[:-2])


class TestEmitReport:
    def test_writes_expected_files(self, tmp_path):
        [m] = run_experiment([narma_manifest()])
        written = emit_report([m], tmp_path, trajectories=True)
        names = {p.name for p in written}
        assert names == {"metrics.csv", f"manifest_{m.cell_id}.json",
                         f"trajectory_{m.cell_id}.csv"}
        loaded = ExperimentManifest.from_json(
            (tmp_path / f"manifest_{m.cell_id}.json").read_text())
        assert metrics_csv_text([loaded]) == (tmp_path / "metrics.csv").read_text()

    def test_manifest_json_is_sorted_and_versioned(self, tmp_path):
        [m] = run_experiment([narma_manifest()])
        emit_report([m], tmp_path)
        data = json.loads((tmp_path / f"manifest_{m.cell_id}.json").read_text())
        assert list(data) == sorted(data)
        assert data["version"] == m.version

    def test_rejects_empty_list(self, tmp_path):
        with pytest.raises(ConfigError):
            emit_report([], tmp_path)
