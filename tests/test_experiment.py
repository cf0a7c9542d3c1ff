import csv
import io
import json
import re
from dataclasses import replace

import numpy as np
import pytest
from conftest import PHASES, SMALL, blas_core

from spinqrc import experiment
from spinqrc.errors import ConfigError
from spinqrc.esn import run_esn
from spinqrc.experiment import (TASK_NAMES, ExperimentManifest, SweepGrid,
                                emit_report, json_list, json_object,
                                manifest_rows, metrics_csv_text, read_json,
                                run_experiment, trajectory_csv_text)
from spinqrc.linalg import kernel_blas
from spinqrc.readout import (ReadoutType, make_features, nmse, predict,
                             stm_capacity, train_weights)
from spinqrc.reservoir import ReservoirConfig, run_sequence
from spinqrc.tasks import gen_narma_input, gen_narma_target, gen_stm

SMALL_ESN = dict(PHASES, n_nodes=4)

FLOAT_13_SIG = re.compile(r"^-?\d\.\d{12}e[+-]\d{2,3}$")


def narma_manifest(**kw):
    fields = dict(kind="reservoir", config=dict(SMALL),
                  tasks=("narma2",), n_seeds=2)
    fields.update(kw)
    return ExperimentManifest(**fields)


def esn_manifest(variant=1, **kw):
    fields = dict(kind="esn", config=dict(SMALL_ESN, variant=variant),
                  tasks=("narma2",), n_seeds=2)
    fields.update(kw)
    return ExperimentManifest(**fields)


class TestManifestTaskNames:
    """A manifest's task check."""

    def test_accepts_known_names(self):
        for name in ("stm", "narma2", "narma5", "narma10", "narma15",
                     "narma20"):
            narma_manifest(tasks=(name,))

    def test_rejects_unknown(self):
        with pytest.raises(ConfigError):
            narma_manifest(tasks=("narma3",))


@pytest.mark.parametrize("call, message", [
    (lambda: json_object([1], "block", ("a",)),
     "block must be a JSON object, got [1]"),
    (lambda: json_object({"a": 1, "c": 2, "b": 3}, "block", ("b", "a")),
     "unknown key(s) 'c' in block; known keys: a, b"),
    (lambda: json_object({"a": 1}, "block", None, required=("a", "b", "c")),
     "block has no 'b', 'c'"),
    (lambda: json_list({"a": 1}, "axis"), "axis must be a list, got {'a': 1}"),
    # The duplicate test skips a list with an unhashable entry; the entry
    # check of the list's owner rejects it.
    (lambda: narma_manifest(stm_delays=[[1], [2], [1]]),
     "stm_delays[0] must be an integer in [0, 99], got [1]"),
    (lambda: json_list((0.5, 1, 1.0), "axis"),
     "axis has a duplicate value: (0.5, 1, 1.0)"),
], ids=["not_an_object", "unknown_key", "missing_key", "not_a_list",
        "repeated_unhashable", "repeated_number"])
def test_json_reader_names_where_the_value_came_from(call, message):
    with pytest.raises(ConfigError) as exc:
        call()
    assert str(exc.value) == message


def test_json_reader_returns_the_value():
    value = {"a": [1]}
    assert json_object(value, "block", None) is value
    assert json_object(value, "block", ("a", "b"), required=("a",)) is value
    assert json_list([[1], [2], [1]], "axis") == ([1], [2], [1])
    assert json_list([], "axis") == ()


class TestManifest:
    def test_json_depends_only_on_the_inputs(self):
        # No stamp of time or release: two manifests of one input are one.
        assert narma_manifest().to_json() == narma_manifest().to_json()

    def test_rejects_bad_kind(self):
        with pytest.raises(ConfigError, match="kind"):
            narma_manifest(kind="quantum")

    def test_rejects_bad_task(self):
        with pytest.raises(ConfigError):
            narma_manifest(tasks=("narma7",))

    @pytest.mark.parametrize("kw", [dict(stm_delays=(1, 1, 2)),
                                    dict(tasks=("narma2", "stm", "narma2")),
                                    dict(tasks=("narma2", "narma2"))])
    def test_rejects_repeated_value(self, kw):
        with pytest.raises(ConfigError, match="duplicate"):
            esn_manifest(**kw)

    @pytest.mark.parametrize("delays", [(-1,), (0, 100)])
    @pytest.mark.parametrize("task", ["stm", "narma2"])
    def test_rejects_stm_delay_out_of_range(self, task, delays):
        with pytest.raises(ConfigError, match=(
                r"stm_delays\[\d\] must be an integer in \[0, 99\], got ")):
            narma_manifest(tasks=(task,), stm_delays=delays)

    def test_rejects_negative_ridge_before_simulating(self, simulations):
        with pytest.raises(ConfigError,
                           match="ridge must be a number >= 0, got -1$"):
            run_experiment([narma_manifest(ridge=-1)])
        assert simulations == []

    def test_json_roundtrip_preserves_metrics(self):
        [m] = run_experiment([narma_manifest()])
        restored = ExperimentManifest.from_json(json.loads(m.to_json()))
        assert restored.tasks == m.tasks
        assert set(restored.metrics) == set(m.metrics)
        for key in m.metrics:
            assert restored.metrics[key].per_seed == m.metrics[key].per_seed

    @pytest.mark.parametrize("make", [narma_manifest, esn_manifest],
                             ids=["reservoir", "esn"])
    def test_a_stored_row_is_a_manifest_row_with_its_values(self, make):
        [m] = run_experiment([make(tasks=("stm", "narma2"),
                                   stm_delays=(0, 1))])
        restored = ExperimentManifest.from_json(json.loads(m.to_json()))
        rows = {row.row_id: row for row in manifest_rows(m)}
        for manifest in (m, restored):
            assert manifest.metrics.keys() == rows.keys()
            for key, row in manifest.metrics.items():
                assert len(row.per_seed) == m.n_seeds
                assert replace(row, per_seed=()) == rows[key]

    def test_cell_id_encodes_configuration(self):
        m = narma_manifest(config=dict(SMALL, topology="ring", gamma=0.01),
                           readout=2)
        assert m.cell_id == "narma2_ring_g0.01_r2"
        assert esn_manifest(3).cell_id == "narma2_esn3"


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

    def test_checks_every_cell_before_simulating(self):
        # A manifest derives its rows, building each cell's member-0
        # config, when it is built; so no bad cell reaches run_experiment.
        with pytest.raises(ConfigError,
                           match="n_nodes must be an integer >= 1, got 0$"):
            esn_manifest(config=dict(SMALL_ESN, n_nodes=0))

    @pytest.mark.parametrize("key", ["weight_seed", "n_nodez"])
    def test_an_esn_config_holds_no_member_or_unknown_key(self, key):
        with pytest.raises(ConfigError, match=re.escape(
                f"unknown key(s) '{key}' in config; known keys: ")):
            esn_manifest(config=dict(SMALL_ESN, **{key: 3}))

    def test_an_esn_config_without_variant_runs_esn1(self):
        m = esn_manifest(config=dict(SMALL_ESN))
        assert [row.topology for row in manifest_rows(m)] == ["esn1"]

    @pytest.mark.parametrize("fields, fragment", [
        (dict(config=dict(SMALL, gamma=2.0)),
         "gamma must be a number in [0, 1], got 2.0"),
        (dict(tasks=("narma2", "stm"), stm_delays=()),
         "stm task requires at least one delay"),
        (dict(config={"gama": 0.5}),
         "unknown key(s) 'gama' in config; known keys: "),
        (dict(config=dict(SMALL, coupling_seed=3)),
         "unknown key(s) 'coupling_seed' in config; known keys: "),
        (dict(config=[("n_qubits", 4)]), "config must be a JSON object")],
        ids=["bad_config_value", "stm_without_delays", "unknown_key",
             "member_key", "config_list"])
    def test_a_bad_reservoir_manifest_fails_when_built(self, fields,
                                                       fragment):
        with pytest.raises(ConfigError, match=re.escape(fragment)):
            narma_manifest(**fields)

    @pytest.mark.parametrize("make, columns", [
        (lambda **c: narma_manifest(config=dict(SMALL, **c)), 5),
        (lambda **c: narma_manifest(config=dict(SMALL, **c),
                                    readout=2), 2),
        (lambda **c: esn_manifest(config=dict(SMALL_ESN, **c)), 5)],
        ids=["per_qubit", "averaged", "esn"])
    def test_n_fb_holds_one_step_per_feature_column(self, make, columns):
        run_experiment([make(n_fb=columns)])
        with pytest.raises(ConfigError, match=re.escape(
                f"n_fb must be an integer >= {columns}, ")):
            make(n_fb=columns - 1)

    def test_stm_needs_two_test_steps(self):
        run_experiment([narma_manifest(config=dict(SMALL, n_test=1)),
                        narma_manifest(config=dict(SMALL, n_test=2),
                                       tasks=("stm",), stm_delays=(0,))])
        with pytest.raises(ConfigError, match=re.escape(
                "n_test must be an integer >= 2 for the stm task's capacity, "
                "got 1")):
            narma_manifest(config=dict(SMALL, n_test=1),
                           tasks=("narma2", "stm"))

    def test_simulates_each_config_and_drive_once(self, simulations):
        cells = SweepGrid().manifests(dict(SMALL), tasks=TASK_NAMES,
                                      n_seeds=2, base_seed=0, input_seed=42)
        run_experiment(cells)
        # 2 topologies x 2 gammas x 2 drives (stm, narma) x 2 seeds; the
        # readout axis and the five NARMA orders share trajectories.
        assert len(simulations) == 16
        assert len(set(simulations)) == 16

    def test_input_seed_does_not_split_narma_simulations(self, simulations):
        # The NARMA drive does not depend on input_seed, so two cells that
        # differ only in it share every trajectory.
        a, b = run_experiment([narma_manifest(input_seed=42),
                               narma_manifest(input_seed=7)])
        assert len(simulations) == 2
        assert a.metrics == b.metrics

    def test_rows_are_the_primitives_scores_bit_for_bit(self):
        # Each row's value per seed is the score, on the test window, of a
        # readout trained on the member's own trajectory; an stm target is
        # the drive delayed by tau steps, zero before the drive starts.
        [cell] = run_experiment([narma_manifest(
            tasks=("stm", "narma2"), stm_delays=(0, 3), readout=2)])
        config = ReservoirConfig(**SMALL)
        total = config.total_steps
        stm, narma = gen_stm(total, 42), gen_narma_input(total)
        targets = {f"stm_tau{tau:02d}": (stm, stm_capacity, np.array(
                       [stm[k - tau] if k >= tau else 0.0
                        for k in range(total)]))
                   for tau in (0, 3)}
        targets["narma2"] = (narma, nmse, gen_narma_target(narma, 2))
        assert list(cell.metrics) == [f"{task}|linear|averaged|0.1"
                                      for task in targets]
        for task, (drive, score, target) in targets.items():
            expected = []
            for seed in range(2):
                member = replace(config, coupling_seed=seed)
                feats = make_features(run_sequence(member, drive).z_rows,
                                      ReadoutType.AVERAGED)
                tr, te = member.train_slice, member.test_slice
                weights = train_weights(feats[tr], target[tr])
                expected.append(score(predict(weights, feats[te]), target[te]))
            assert cell.metrics[f"{task}|linear|averaged|0.1"].per_seed == (
                tuple(expected))

    def test_batched_call_matches_cells_run_alone(self):
        grid = SweepGrid()
        given = dict(tasks=TASK_NAMES, n_seeds=2, stm_delays=(0, 3),
                     base_seed=0, input_seed=42)
        batched = run_experiment(grid.manifests(dict(SMALL), **given))
        alone = grid.manifests(dict(SMALL), **given)
        for cell, single in zip(batched, alone):
            run_experiment([single])
            assert cell.metrics.keys() == single.metrics.keys()
            for key, stats in cell.metrics.items():
                assert stats.per_seed == single.metrics[key].per_seed


class TestRunExperimentEsnCells:
    def test_rows_per_variant(self):
        cells = run_experiment([esn_manifest(1), esn_manifest(3)])
        rows = [s for m in cells for s in m.metrics.values()]
        assert [s.topology for s in rows] == ["esn1", "esn3"]
        assert all(s.readout_type == "per_qubit" for s in rows)
        assert all(s.gamma_str == "" for s in rows)

    def test_rejects_unknown_variant(self, simulations):
        with pytest.raises(ConfigError, match="variant"):
            run_experiment([esn_manifest(1), esn_manifest(2)])
        assert simulations == []

    def test_simulates_each_variant_and_drive_once(self, simulations):
        run_experiment([esn_manifest(v, tasks=("stm", "narma2", "narma5"),
                                     stm_delays=(0, 1)) for v in (1, 3)])
        # 2 variants x 2 seeds x 2 drives (stm, narma); NARMA orders share
        # one drive.
        assert len(simulations) == 8
        assert len(set(simulations)) == 8

    def test_shares_a_call_with_reservoir_cells(self):
        cells = (narma_manifest, esn_manifest, lambda: esn_manifest(3))
        together = run_experiment([make() for make in cells])
        for cell, alone in zip(together, [make() for make in cells]):
            run_experiment([alone])
            assert cell.metrics.keys() == alone.metrics.keys()
            for key, stats in cell.metrics.items():
                assert stats.per_seed == alone.metrics[key].per_seed


class TestDiagnostics:
    @pytest.mark.parametrize("make", [narma_manifest, esn_manifest],
                             ids=["reservoir", "esn"])
    def test_each_row_holds_each_members_fit(self, make):
        # Member by member, a row's rank, condition and residual are those
        # of the fit on the member's own trajectory and the row's target.
        [m] = run_experiment([make(tasks=("stm", "narma2"),
                                   stm_delays=(0, 3))])
        rows = manifest_rows(m)
        config = rows[0].config
        total = config.total_steps
        drives = {"stm": gen_stm(total, m.input_seed),
                  "narma2": gen_narma_input(total)}
        seed_field = "weight_seed" if m.kind == "esn" else "coupling_seed"
        assert m.diagnostics.keys() - {"blas"} == m.metrics.keys()
        for row in rows:
            drive = drives[row.drive]
            target = (gen_narma_target(drive, 2) if row.drive == "narma2"
                      else np.concatenate((np.zeros(int(row.task[-2:])),
                                           drive))[:total])
            fits = m.diagnostics[row.row_id]
            assert fits.keys() == {"rank", "condition", "residual_rms"}
            assert all(len(values) == m.n_seeds for values in fits.values())
            for seed in range(m.n_seeds):
                member = replace(config, **{seed_field: seed})
                states = (run_esn(member, drive) if m.kind == "esn"
                          else run_sequence(member, drive).z_rows)
                feats = make_features(states, row.readout)
                tr = member.train_slice
                weights = train_weights(feats[tr], target[tr])
                assert ({key: values[seed] for key, values in fits.items()}
                        == {"rank": weights.rank,
                            "condition": weights.condition,
                            "residual_rms": weights.residual_rms})

    def test_a_sweep_names_the_blas_it_ran_on(self, run_cli, caller_threads):
        # Each manifest records the kernel's core and config as linalg
        # reads them, and the one thread it ran at whatever the caller's
        # count.
        caller_threads[1](2)
        code, out = run_cli(["sweep", "--seeds", "1"], dict(
            SMALL, tasks=["narma2"],
            sweep={"topologies": ["linear", "ring"], "gammas": [0.1],
                   "readouts": [1]}))
        assert code == 0
        manifests = sorted(out.glob("manifest_*.json"))
        assert len(manifests) == 2
        for path in manifests:
            blas = json.loads(path.read_text())["diagnostics"]["blas"]
            assert blas == {"core": blas_core(),
                            "config": kernel_blas().config, "threads": 1}
        assert caller_threads[0]() == 2

    def test_report_rebuilds_metrics_with_or_without_the_block(
            self, tmp_path, run_cli):
        cells = run_experiment([
            narma_manifest(tasks=("stm", "narma2"), stm_delays=(0, 1)),
            esn_manifest(3)])
        run = tmp_path / "run"
        emit_report(cells, run)
        written = (run / "metrics.csv").read_bytes()
        # A manifest without the block is one written before it existed.
        bare = tmp_path / "bare"
        bare.mkdir()
        for cell in cells:
            name = f"manifest_{cell.cell_id}.json"
            data = json.loads((run / name).read_text())
            assert data["diagnostics"] == cell.diagnostics
            del data["diagnostics"]
            (bare / name).write_text(json.dumps(data))
        for out in (run, bare):
            assert run_cli(["report"], out=out.name) == (0, out)
            assert (out / "metrics.csv").read_bytes() == written


class TestSweepGrid:
    def test_manifest_grid_covers_axes(self):
        grid = SweepGrid(topologies=("linear", "ring"), gammas=(0.1, 0.01),
                         readouts=(1, 2))
        manifests = grid.manifests(dict(SMALL), tasks=("narma2",),
                                   n_seeds=1, base_seed=0, input_seed=42)
        assert len(manifests) == 8
        combos = {(m.config["topology"], m.config["gamma"], m.readout)
                  for m in manifests}
        assert len(combos) == 8

    def test_cell_guard(self):
        with pytest.raises(ConfigError):
            SweepGrid(gammas=tuple(np.linspace(0.01, 1.0, 60))).manifests(
                {}, tasks=("stm",), stm_delays=tuple(range(100)))

    def test_an_oversized_grid_fails_after_building_one_manifest(
            self, monkeypatch):
        built = []
        check = ExperimentManifest.__post_init__
        monkeypatch.setattr(ExperimentManifest, "__post_init__",
                            lambda m: (built.append(m), check(m))[1])
        grid = SweepGrid(gammas=tuple(i / 5000 for i in range(5001)))
        with pytest.raises(ConfigError, match=(
                "^sweep would produce 20004 rows; limit is 10000$")):
            grid.manifests(dict(SMALL), tasks=("narma2",))
        assert len(built) == 1

    def test_rejects_empty_axis(self):
        with pytest.raises(ConfigError):
            SweepGrid(topologies=())

    @pytest.mark.parametrize("axis, values", [
        ("topologies", ("ring", "ring")), ("gammas", (0.1, 0.01, 0.1)),
        ("readouts", (1, 1)), ("tasks", ("narma2", "narma2")),
        ("stm_delays", (0, 3, 3))])
    def test_rejects_duplicate_axis_value(self, axis, values):
        # The tasks and the delays are no grid axis: every manifest of the
        # grid checks them.
        with pytest.raises(ConfigError, match="duplicate"):
            if axis in ("tasks", "stm_delays"):
                SweepGrid().manifests({}, **{"tasks": ("stm",), axis: values})
            else:
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
                         readouts=(1,))
        manifests = run_experiment(grid.manifests(
            dict(SMALL), tasks=("narma2",), n_seeds=1, base_seed=0,
            input_seed=42))
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
        total = sum(PHASES.values())
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
        # The prediction is member 0's delay-2 fit, trained on the train
        # window and applied to every step, wherever delay 2 is listed.
        member = manifest_rows(m)[0].config
        drive = gen_stm(member.total_steps, m.input_seed)
        target = np.concatenate((np.zeros(2), drive))[:len(drive)]
        feats = make_features(run_sequence(member, drive).z_rows,
                              ReadoutType.PER_QUBIT)
        tr = member.train_slice
        y_pred = predict(train_weights(feats[tr], target[tr]), feats)
        assert [r[-2] for r in rows] == [experiment._fmt(y) for y in y_pred]
        [later] = run_experiment([narma_manifest(tasks=("stm",),
                                                 stm_delays=(5, 2))])
        assert trajectory_csv_text(later) == trajectory_csv_text(m)

    @pytest.mark.parametrize("task", ["stm", "narma2"])
    def test_reads_the_kept_trajectory_only(self, monkeypatch, task):
        # The drive, the states, the prediction and the target come from the
        # run: the report neither simulates, regenerates a drive nor fits.
        [m] = run_experiment([narma_manifest(tasks=(task,))])
        text = trajectory_csv_text(m)

        def forbidden(*args):
            raise AssertionError("trajectory_csv_text re-ran the member")

        for name in ("spinqrc.experiment.run_sequence",
                     "spinqrc.experiment.gen_stm",
                     "spinqrc.tasks.gen_narma_input",
                     "spinqrc.tasks.gen_narma_target",
                     "spinqrc.experiment.make_features",
                     "spinqrc.experiment.train_weights",
                     "spinqrc.experiment.predict"):
            monkeypatch.setattr(name, forbidden)
        assert trajectory_csv_text(m) == text

    def test_refuses_a_manifest_that_was_not_run(self):
        with pytest.raises(ConfigError, match="run_experiment"):
            trajectory_csv_text(narma_manifest())


class TestEmitReport:
    def test_writes_expected_files(self, tmp_path):
        [m] = run_experiment([narma_manifest()])
        written = emit_report([m], tmp_path, trajectories=True)
        names = {p.name for p in written}
        assert names == {"metrics.csv", f"manifest_{m.cell_id}.json",
                         f"trajectory_{m.cell_id}.csv"}
        loaded = ExperimentManifest.from_json(
            read_json(tmp_path / f"manifest_{m.cell_id}.json", "manifest"))
        assert metrics_csv_text([loaded]) == (tmp_path / "metrics.csv").read_text()

    def test_manifest_json_is_sorted(self, tmp_path):
        [m] = run_experiment([narma_manifest()])
        emit_report([m], tmp_path)
        data = json.loads((tmp_path / f"manifest_{m.cell_id}.json").read_text())
        assert list(data) == sorted(data)
        # Each stored row is its per-seed values alone, one float per seed.
        assert data["metrics"] == {key: list(stats.per_seed)
                                   for key, stats in m.metrics.items()}
        for values in data["metrics"].values():
            assert len(values) == m.n_seeds
            assert all(type(v) is float for v in values)

    def test_rejects_empty_list(self, tmp_path):
        with pytest.raises(ConfigError):
            emit_report([], tmp_path)

    def test_two_manifests_of_one_cell_write_nothing(self, tmp_path):
        # Both are cell multi_linear_g0.1_r1: one manifest file would hold
        # one of them, and report would rebuild half of metrics.csv.
        cells = run_experiment([narma_manifest(
            config=dict(SMALL, n_qubits=3), n_seeds=1, tasks=tasks)
            for tasks in (("stm", "narma2"), ("narma5", "narma10"))])
        assert cells[0].cell_id == cells[1].cell_id
        out = tmp_path / "out"
        with pytest.raises(ConfigError, match=re.escape(
                str(out / f"manifest_{cells[0].cell_id}.json"))):
            emit_report(cells, out)
        assert not out.exists()

    def test_a_trajectory_it_cannot_build_writes_nothing(self, tmp_path):
        out = tmp_path / "out"
        with pytest.raises(ConfigError, match="run_experiment"):
            emit_report([narma_manifest()], out, trajectories=True)
        assert not out.exists()
