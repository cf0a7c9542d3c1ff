"""Experiment orchestration: seeded ensembles, sweeps, and report files.

A manifest snapshots everything needed to reproduce a set of metrics:
the physical configuration, the task list, and every seed. Running a
manifest fills in per-seed metrics; emitting a report turns manifests
into a deterministic ``metrics.csv`` (and optional per-step trajectory
files). Re-running the same manifest always reproduces the same bytes.
"""
from __future__ import annotations

import json
import numbers
import os
from dataclasses import dataclass, field, fields
from datetime import datetime, timezone
from pathlib import Path
from types import SimpleNamespace
from typing import Iterable, Sequence

import numpy as np

from . import tasks, workers
from .errors import ConfigError
from .esn import VARIANTS, EsnConfig, EsnTrajectory, run_esn
from .linalg import one_blas_thread
from .readout import (ReadoutType, make_features, nmse, predict, stm_capacity,
                      train_weights)
from .reservoir import (ReservoirConfig, Trajectory, check_numbers,
                        run_sequence)
from .tasks import NARMA_ORDERS, gen_stm

MAX_SWEEP_CELLS = 10_000

TASK_NAMES = ("stm",) + tuple(f"narma{n}" for n in NARMA_ORDERS)

_READOUT_LABEL = {ReadoutType.PER_QUBIT: "per_qubit", ReadoutType.AVERAGED: "averaged"}

METRICS_HEADER = ("task", "topology", "readout_type", "gamma", "seed_count",
                  "mean_metric", "std_metric")


def _fmt(x: float) -> str:
    return f"{x:.12e}"


def _gamma_str(gamma: float) -> str:
    return repr(float(gamma))


def unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A ``json.loads`` object hook: the object's dict, or ConfigError when
    a key repeats, where ``json.loads`` alone keeps its last value."""
    d = {}
    for key, value in pairs:
        if key in d:
            raise ConfigError(f"repeated key {key!r} in a JSON object")
        d[key] = value
    return d


def parse_task(name: str) -> None:
    """Raise ConfigError unless ``name`` is one of TASK_NAMES."""
    if name not in TASK_NAMES:
        raise ConfigError(f"unknown task {name!r}; expected one of {TASK_NAMES}")


@dataclass(frozen=True)
class RowStats:
    """One metrics row plus the per-seed values behind it."""

    task: str
    topology: str
    readout_type: str
    gamma_str: str
    metric: str
    per_seed: tuple[float, ...]

    @property
    def mean(self) -> float:
        return float(np.mean(self.per_seed))

    @property
    def std(self) -> float:
        return float(np.std(self.per_seed))

    @property
    def row_id(self) -> str:
        return "|".join((self.task, self.topology, self.readout_type, self.gamma_str))

    def to_dict(self) -> dict:
        return {"task": self.task, "topology": self.topology,
                "readout_type": self.readout_type, "gamma": self.gamma_str,
                "metric": self.metric, "per_seed": list(self.per_seed)}

    @staticmethod
    def from_dict(d: dict) -> "RowStats":
        """The row a ``to_dict`` value describes; ConfigError for any other
        value, so a damaged manifest cannot write a damaged row."""
        keys = ("task", "topology", "readout_type", "gamma", "metric")
        if not isinstance(d, dict) or set(d) != {*keys, "per_seed"}:
            raise ConfigError(f"a metrics row must be an object with the keys "
                              f"{', '.join(keys)}, per_seed; got {d!r}")
        for key in keys:
            if not isinstance(d[key], str):
                raise ConfigError(
                    f"metrics row {key} must be a string, got {d[key]!r}")
        values = d["per_seed"]
        if (not isinstance(values, list) or not values
                or any(isinstance(v, bool) or not isinstance(v, numbers.Real)
                       for v in values)):
            raise ConfigError("metrics row per_seed must be a non-empty list "
                              f"of numbers, got {values!r}")
        return RowStats(task=d["task"], topology=d["topology"],
                        readout_type=d["readout_type"], gamma_str=d["gamma"],
                        metric=d["metric"], per_seed=tuple(values))


@dataclass
class ExperimentManifest:
    """Reproducible description of one experiment cell (or ESN comparison)."""

    kind: str  # "reservoir" or "esn"
    config: dict
    tasks: tuple[str, ...]
    readout: int = 1
    stm_delays: tuple[int, ...] = tuple(range(11))
    n_seeds: int = 10
    base_seed: int = 0
    input_seed: int = 42
    ridge: float = 0.0
    variants: tuple[int, ...] = VARIANTS
    version: str = ""
    created: str = ""
    metrics: dict = field(default_factory=dict)
    # Ensemble member 0's trajectory on the first task's drive, kept by
    # run_experiment for the trajectory report; never serialized.
    trajectory: Trajectory | None = field(default=None, repr=False,
                                          compare=False)

    def __post_init__(self) -> None:
        if self.kind not in ("reservoir", "esn"):
            raise ConfigError(f"unknown manifest kind {self.kind!r}")
        check_numbers(self, ("n_seeds", "base_seed", "input_seed", "readout"),
                      ("ridge",))
        self.ridge = float(self.ridge)
        if self.readout not in {r.value for r in ReadoutType}:
            raise ConfigError(f"unknown readout {self.readout}; expected 1 or 2")
        for name in ("tasks", "stm_delays", "variants"):
            values = getattr(self, name)
            if not isinstance(values, (list, tuple)):
                raise ConfigError(f"{name} must be a list, got {values!r}")
            for value in values:
                if name == "tasks":
                    parse_task(value)
                else:
                    check_numbers(SimpleNamespace(**{name: value}), (name,), ())
                if name == "stm_delays" and not 0 <= value <= 99:
                    raise ConfigError(f"stm delay {value} outside [0, 99]")
            if len(set(values)) != len(values):
                raise ConfigError(f"{name} has a duplicate value: {values}")
            setattr(self, name, tuple(values))
        if not self.tasks:
            raise ConfigError("tasks is empty; a manifest needs a task")
        if self.n_seeds < 1:
            raise ConfigError("n_seeds must be positive")
        for name in ("base_seed", "input_seed", "ridge"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative, "
                                  f"got {getattr(self, name)}")
        if not self.version:
            from spinqrc import __version__

            self.version = __version__
        if not self.created:
            self.created = datetime.now(timezone.utc).isoformat()

    def reservoir_config(self, coupling_seed: int) -> ReservoirConfig:
        return ReservoirConfig(coupling_seed=coupling_seed, **self.config)

    def esn_config(self, variant: int, weight_seed: int) -> EsnConfig:
        return EsnConfig(variant=variant, weight_seed=weight_seed, **self.config)

    def to_json(self) -> str:
        d = {f.name: getattr(self, f.name) for f in fields(self)
             if f.name != "trajectory"}
        d["metrics"] = {k: v.to_dict() if isinstance(v, RowStats) else v
                        for k, v in self.metrics.items()}
        return json.dumps(d, indent=2, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "ExperimentManifest":
        d = json.loads(text, object_pairs_hook=unique_keys)
        if not isinstance(d, dict):
            raise ConfigError(f"a manifest must hold a JSON object, got a "
                              f"JSON {type(d).__name__}")
        metrics = d.pop("metrics", {})
        if not isinstance(metrics, dict):
            raise ConfigError(f"metrics must be a JSON object, got {metrics!r}")
        metrics = {k: RowStats.from_dict(v) for k, v in metrics.items()}
        m = ExperimentManifest(**d)
        m.metrics = metrics
        return m

    @property
    def cell_id(self) -> str:
        task_tag = self.tasks[0] if len(self.tasks) == 1 else "multi"
        if self.kind == "esn":
            return f"{task_tag}_esn"
        config = self.reservoir_config(self.base_seed)
        gamma = _gamma_str(config.gamma)
        return f"{task_tag}_{config.topology.value}_g{gamma}_r{self.readout}"


def _task_sequences(name: str, length: int, delays: Iterable[int],
                    input_seed: int) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Input stream plus target vectors keyed by metrics task name."""
    if name == "stm":
        delays = tuple(delays)
        if not delays:
            raise ConfigError("stm task requires at least one delay")
        inputs = gen_stm(length, input_seed)
        targets = {}
        for tau in delays:
            shifted = np.zeros(length)
            if tau < length:
                shifted[tau:] = inputs[: length - tau]
            targets[f"stm_tau{tau:02d}"] = shifted
        return inputs, targets
    # Called through the module so that tracing wrappers on it see the call.
    inputs = tasks.gen_narma_input(length)
    return inputs, {name: tasks.gen_narma_target(inputs, int(name[5:]))}


def _score(metric: str, predicted: np.ndarray, target: np.ndarray) -> float:
    if metric == "nmse":
        return nmse(predicted, target)
    return stm_capacity(predicted, target)


def _cells(manifest: ExperimentManifest) -> list[tuple]:
    """(topology label, readout, gamma string, member configs) of each cell
    of a manifest: the manifest itself for a reservoir, one cell per variant
    for an ESN. Building the configs validates them."""
    seeds = range(manifest.base_seed, manifest.base_seed + manifest.n_seeds)
    if manifest.kind == "esn":
        if not manifest.variants:
            raise ConfigError("need at least one ESN variant")
        return [(f"esn{v}", ReadoutType.PER_QUBIT, "",
                 [manifest.esn_config(v, seed) for seed in seeds])
                for v in manifest.variants]
    configs = [manifest.reservoir_config(seed) for seed in seeds]
    return [(str(configs[0].topology.value), ReadoutType(manifest.readout),
             _gamma_str(configs[0].gamma), configs)]


def _simulate(config: ReservoirConfig | EsnConfig, inputs: np.ndarray
              ) -> tuple[Trajectory | EsnTrajectory, np.ndarray]:
    """One member's trajectory and the rows its readout features come from."""
    if isinstance(config, EsnConfig):
        traj = run_esn(config, inputs)
        return traj, traj.states
    traj = run_sequence(config, inputs)
    return traj, traj.z_rows


def _simulate_all(jobs: list[tuple]) -> list[tuple]:
    """``_simulate`` of every (config, inputs) job, in worker processes.

    Jobs are grouped by draw, so that each group builds its U once and
    runs its jobs in the given order: a reservoir's draw is its
    ``coupling_draw``, an ESN's its weight seed, which all its variants
    share. ``workers.run_groups`` spreads the groups over processes, all
    at one BLAS thread, so each job computes the same bits in whichever
    process runs it.
    """
    groups: dict[object, list[int]] = {}
    for i, (config, _) in enumerate(jobs):
        draw = (config.weight_seed if isinstance(config, EsnConfig)
                else config.coupling_draw)
        groups.setdefault(draw, []).append(i)
    # Holding one thread over the fork spares each process the thread-count
    # calls that, after a fork, start an OpenBLAS worker thread spinning
    # for about 0.1 s of CPU beside the workers (one_blas_thread).
    with one_blas_thread():
        return workers.run_groups(_simulate, jobs, list(groups.values()))


def run_experiment(
        cells: Sequence[ExperimentManifest]) -> list[ExperimentManifest]:
    """Fill each manifest's metrics by running its seed ensembles.

    A reservoir manifest is one cell; an ESN manifest has one cell per
    variant, whose members share W and w_in with the other variants' (same
    weight seed), so their metric differences isolate the history depth.
    Ensemble member m uses coupling (or weight) seed ``base_seed + m``; the
    input stream is shared by all members. Within one call every distinct
    task stream is generated once, and every distinct (config, drive)
    trajectory is simulated once and shared by each cell and target that
    uses it: cells that differ only in readout, and tasks that share a
    drive (all NARMA orders). Every cell is checked before any
    simulation runs, and every trajectory is simulated before any fit, in
    worker processes (``_simulate_all``); the results do not depend on
    how many. Returns the manifests, filled in place; each
    reservoir manifest also keeps its member-0 trajectory on its first
    task for ``trajectory_csv_text``.
    """
    streams: dict[tuple, tuple[np.ndarray, dict[str, np.ndarray]]] = {}
    plans = []
    for manifest in cells:
        for label, readout, gamma_str, configs in _cells(manifest):
            length = configs[0].total_steps
            task_streams = []
            for name in manifest.tasks:
                key = (name, length, tuple(manifest.stm_delays),
                       manifest.input_seed)
                if key not in streams:
                    streams[key] = _task_sequences(name, length,
                                                   manifest.stm_delays,
                                                   manifest.input_seed)
                task_streams.append((name, *streams[key]))
            plans.append((manifest, label, readout, gamma_str, configs,
                          task_streams))

    jobs: dict[tuple, tuple] = {}
    for *_, configs, task_streams in plans:
        for _, inputs, _ in task_streams:
            for config in configs:
                jobs.setdefault((config, inputs.tobytes()), (config, inputs))
    trajectories = dict(zip(jobs, _simulate_all(list(jobs.values()))))

    for manifest in cells:
        manifest.metrics = {}
    for manifest, label, readout, gamma_str, configs, task_streams in plans:
        for name, inputs, target_map in task_streams:
            metric = "nmse" if name.startswith("narma") else "stm_capacity"
            per_seed: dict[str, list[float]] = {key: [] for key in target_map}
            for m, config in enumerate(configs):
                traj, rows = trajectories[(config, inputs.tobytes())]
                if (m == 0 and name == manifest.tasks[0]
                        and manifest.kind == "reservoir"):
                    manifest.trajectory = traj
                feats = make_features(rows, readout)
                tr, te = traj.train_slice, traj.test_slice
                for key, target in target_map.items():
                    weights = train_weights(feats[tr], target[tr],
                                            ridge=manifest.ridge)
                    per_seed[key].append(_score(metric,
                                                predict(weights, feats[te]),
                                                target[te]))
            for key, values in per_seed.items():
                stats = RowStats(task=key, topology=label,
                                 readout_type=_READOUT_LABEL[readout],
                                 gamma_str=gamma_str, metric=metric,
                                 per_seed=tuple(values))
                manifest.metrics[stats.row_id] = stats
    return list(cells)


@dataclass(frozen=True)
class SweepGrid:
    """Cartesian product of experiment cells for the sweep runner: the
    axes a sweep varies. Every other manifest field, the tasks included,
    is the same in each cell and is passed to ``manifests``."""

    topologies: tuple[str, ...] = ("linear", "ring")
    gammas: tuple[float, ...] = (0.1, 0.01)
    readouts: tuple[int, ...] = (1, 2)

    def __post_init__(self) -> None:
        for axis in fields(self):
            axis_name, values = axis.name, getattr(self, axis.name)
            if not isinstance(values, (list, tuple)):
                raise ConfigError(
                    f"sweep axis {axis_name} must be a list, got {values!r}")
            if not values:
                raise ConfigError(f"sweep axis {axis_name} is empty")
            # Compared pairwise, not through a set: the entries are checked
            # by the configs built from them, so they may be unhashable here.
            if any(v in values[:i] for i, v in enumerate(values)):
                raise ConfigError(
                    f"sweep axis {axis_name} has a duplicate value: {values}")
            object.__setattr__(self, axis_name, tuple(values))

    def manifests(self, base_config: dict,
                  **manifest_fields) -> list[ExperimentManifest]:
        """One reservoir manifest per grid point, each given
        ``manifest_fields`` unchanged; the manifest defaults the rest."""
        out = [ExperimentManifest(
                   kind="reservoir", readout=readout,
                   config=dict(base_config, topology=topology, gamma=gamma),
                   **manifest_fields)
               for topology in self.topologies for gamma in self.gammas
               for readout in self.readouts]
        task_rows = sum(len(out[0].stm_delays) if t == "stm" else 1
                        for t in out[0].tasks)
        if len(out) * task_rows > MAX_SWEEP_CELLS:
            raise ConfigError(f"sweep would produce {len(out) * task_rows} "
                              f"cells; limit is {MAX_SWEEP_CELLS}")
        return out


def metrics_csv_text(manifests: Iterable[ExperimentManifest]) -> str:
    """Deterministic CSV: fixed columns, 13-significant-digit floats, rows
    sorted by configuration key. Two rows with one key are an error."""
    rows = []
    for manifest in manifests:
        for stats in manifest.metrics.values():
            rows.append((stats.task, stats.topology, stats.readout_type,
                         stats.gamma_str, str(len(stats.per_seed)),
                         _fmt(stats.mean), _fmt(stats.std)))
    rows.sort(key=lambda r: r[:4])
    for row, prev in zip(rows[1:], rows):
        if row[:4] == prev[:4]:
            raise ConfigError(
                f"two manifests report the row {','.join(row[:4])}")
    lines = [",".join(METRICS_HEADER)]
    lines.extend(",".join(row) for row in rows)
    return "\n".join(lines) + "\n"


def _write_atomic(path: Path, text: str) -> Path:
    """Write ``text`` to ``path`` through a temporary file in its directory
    and ``os.replace``, so that ``path`` holds either its old content or
    all of ``text``, even when the process dies while writing. An OSError
    removes the temporary file and is raised as a ConfigError naming the
    path."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except OSError as exc:
        tmp.unlink(missing_ok=True)
        raise ConfigError(f"cannot write {path}: {exc}") from None
    return path


def write_metrics(manifests: Iterable[ExperimentManifest],
                  out_dir: Path) -> Path:
    """Create ``out_dir`` and write the manifests' metrics.csv into it."""
    text = metrics_csv_text(manifests)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out_dir}: {exc}")
    return _write_atomic(out_dir / "metrics.csv", text)


def trajectory_csv_text(manifest: ExperimentManifest) -> str:
    """Per-step rows (step, phase, s_k, z_1..z_n, y_pred, y_target) of
    ensemble member 0 on the manifest's first task.

    Predictions come from weights trained on the train window; for the
    stm task the smallest requested delay is used. The trajectory that
    ``run_experiment`` kept is reused when it matches the member's config
    and drive; otherwise the member is simulated here.
    """
    if manifest.kind != "reservoir":
        raise ConfigError("trajectories are defined for reservoir manifests")
    task = manifest.tasks[0]
    config = manifest.reservoir_config(manifest.base_seed)
    delays = (min(manifest.stm_delays),) if task == "stm" else ()
    inputs, target_map = _task_sequences(task, config.total_steps, delays,
                                         manifest.input_seed)
    target = next(iter(target_map.values()))
    traj = manifest.trajectory
    if (traj is None or traj.config != config
            or traj.inputs.tobytes() != inputs.tobytes()):
        traj = run_sequence(config, inputs)
    feats = make_features(traj.z_rows, ReadoutType(manifest.readout))
    weights = train_weights(feats[traj.train_slice], target[traj.train_slice],
                            ridge=manifest.ridge)
    y_pred = predict(weights, feats)
    header = (["step", "phase", "s_k"]
              + [f"z_{i}" for i in range(1, config.n_qubits + 1)]
              + ["y_pred", "y_target"])
    lines = [",".join(header)]
    for k in range(config.total_steps):
        cells = [str(k), config.phase_of(k).value, _fmt(float(inputs[k]))]
        cells.extend(_fmt(z) for z in traj.z_rows[k])
        cells.append(_fmt(float(y_pred[k])))
        cells.append(_fmt(float(target[k])))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def emit_report(manifests: list[ExperimentManifest], out_dir: Path,
                trajectories: bool = False) -> list[Path]:
    """Write metrics.csv, one manifest JSON per experiment, and optional
    trajectory CSVs. Returns the written paths."""
    if not manifests:
        raise ConfigError("nothing to report")
    out_dir = Path(out_dir)
    written = [write_metrics(manifests, out_dir)]
    for manifest in manifests:
        written.append(_write_atomic(
            out_dir / f"manifest_{manifest.cell_id}.json",
            manifest.to_json() + "\n"))
        if trajectories and manifest.kind == "reservoir":
            written.append(_write_atomic(
                out_dir / f"trajectory_{manifest.cell_id}.csv",
                trajectory_csv_text(manifest)))
    return written
