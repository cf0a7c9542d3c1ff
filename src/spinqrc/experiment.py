"""Experiment orchestration: seeded ensembles, sweeps, and report files.

A manifest snapshots everything needed to reproduce a set of metrics:
the physical configuration, the task list, and every seed. Running a
manifest fills in per-seed metrics; emitting a report turns manifests
into a deterministic ``metrics.csv`` (and optional per-step trajectory
files). Re-running the same manifest always reproduces the same bytes.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import tasks, workers
from .errors import ConfigError
from .esn import VARIANTS, EsnConfig, EsnTrajectory, run_esn
from .linalg import SMALL_OPERATOR_DIM, blas_threads, set_blas_threads
from .readout import (ReadoutType, make_features, nmse, predict, stm_capacity,
                      train_weights)
from .reservoir import ReservoirConfig, Trajectory, run_sequence
from .tasks import NARMA_ORDERS, gen_stm

DEFAULT_STM_DELAYS = tuple(range(11))
DEFAULT_SEED_COUNT = 10
MAX_SWEEP_CELLS = 10_000

TASK_NAMES = ("stm",) + tuple(f"narma{n}" for n in NARMA_ORDERS)

_READOUT_LABEL = {ReadoutType.PER_QUBIT: "per_qubit", ReadoutType.AVERAGED: "averaged"}

METRICS_HEADER = ("task", "topology", "readout_type", "gamma", "seed_count",
                  "mean_metric", "std_metric")


def _fmt(x: float) -> str:
    return f"{x:.12e}"


def _gamma_str(gamma: float) -> str:
    return repr(float(gamma))


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
        return RowStats(task=d["task"], topology=d["topology"],
                        readout_type=d["readout_type"], gamma_str=d["gamma"],
                        metric=d["metric"], per_seed=tuple(d["per_seed"]))


@dataclass
class ExperimentManifest:
    """Reproducible description of one experiment cell (or ESN comparison)."""

    kind: str  # "reservoir" or "esn"
    config: dict
    tasks: tuple[str, ...]
    readout: int = 1
    stm_delays: tuple[int, ...] = DEFAULT_STM_DELAYS
    n_seeds: int = DEFAULT_SEED_COUNT
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
        for name in self.tasks:
            parse_task(name)
        for name in ("stm_delays", "variants"):
            values = tuple(getattr(self, name))
            if len(set(values)) != len(values):
                raise ConfigError(f"{name} has a duplicate value: {values}")
        if self.n_seeds < 1:
            raise ConfigError("n_seeds must be positive")
        if not self.version:
            from spinqrc import __version__

            self.version = __version__
        if not self.created:
            self.created = datetime.now(timezone.utc).isoformat()

    def reservoir_config(self, coupling_seed: int) -> ReservoirConfig:
        return ReservoirConfig(coupling_seed=coupling_seed,
                               input_seed=self.input_seed, **self.config)

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
        d = json.loads(text)
        metrics = {k: RowStats.from_dict(v) for k, v in d.pop("metrics", {}).items()}
        for key in ("tasks", "stm_delays", "variants"):
            if key in d:
                d[key] = tuple(d[key])
        m = ExperimentManifest(**d)
        m.metrics = metrics
        return m

    @property
    def cell_id(self) -> str:
        task_tag = self.tasks[0] if len(self.tasks) == 1 else "multi"
        if self.kind == "esn":
            return f"{task_tag}_esn"
        cfg = self.config
        topo = cfg.get("topology", "linear")
        gamma = _gamma_str(cfg.get("gamma", 0.1))
        return f"{task_tag}_{topo}_g{gamma}_r{self.readout}"


def _task_sequences(name: str, length: int, delays: Iterable[int],
                    input_seed: int) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Input stream plus target vectors keyed by metrics task name."""
    if name == "stm":
        delays = tuple(delays)
        if not delays:
            raise ConfigError("stm task requires at least one delay")
        base = gen_stm(length, 0, input_seed)
        targets = {}
        for tau in delays:
            if not 0 <= tau <= 99:
                raise ConfigError(f"stm delay {tau} outside [0, 99]")
            shifted = np.zeros(length)
            if tau < length:
                shifted[tau:] = base.inputs[: length - tau]
            targets[f"stm_tau{tau:02d}"] = shifted
        return base.inputs, targets
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
    if manifest.kind != "reservoir":
        raise ConfigError(f"unknown manifest kind {manifest.kind!r}")
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
    at one BLAS thread. Reservoirs above ``SMALL_OPERATOR_DIM`` run here
    afterwards, at the caller's BLAS thread count, which their bits
    depend on. Each job computes the same bits in whichever process runs
    it.
    """
    groups: dict[object, list[int]] = {}
    local: list[int] = []
    for i, (config, _) in enumerate(jobs):
        if isinstance(config, EsnConfig):
            groups.setdefault(config.weight_seed, []).append(i)
        elif 2**config.n_qubits > SMALL_OPERATOR_DIM:
            local.append(i)
        else:
            groups.setdefault(config.coupling_draw, []).append(i)
    # Small arrays run at one BLAS thread anyway. Holding that count over
    # the fork and every small job spares each process the thread-count
    # calls that, after a fork, start an OpenBLAS worker thread spinning
    # for about 0.1 s of CPU beside the workers (small_operator_threads).
    saved = blas_threads()
    set_blas_threads([1] * len(saved))
    try:
        results = workers.run_groups(_simulate, jobs, list(groups.values()))
    finally:
        set_blas_threads(saved)
    for i in local:
        results[i] = _simulate(*jobs[i])
    return results


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
                parse_task(name)
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
    """Cartesian product of experiment cells for the sweep runner."""

    topologies: tuple[str, ...] = ("linear", "ring")
    gammas: tuple[float, ...] = (0.1, 0.01)
    readouts: tuple[int, ...] = (1, 2)
    tasks: tuple[str, ...] = TASK_NAMES
    stm_delays: tuple[int, ...] = DEFAULT_STM_DELAYS
    n_seeds: int = DEFAULT_SEED_COUNT

    def __post_init__(self) -> None:
        for axis_name in ("topologies", "gammas", "readouts", "tasks"):
            if not getattr(self, axis_name):
                raise ConfigError(f"sweep axis {axis_name} is empty")
        for axis_name in ("topologies", "gammas", "readouts", "tasks",
                          "stm_delays"):
            values = getattr(self, axis_name)
            if len(set(values)) != len(values):
                raise ConfigError(
                    f"sweep axis {axis_name} has a duplicate value: {values}")
        for name in self.tasks:
            parse_task(name)
        task_rows = sum(len(self.stm_delays) if t == "stm" else 1
                        for t in self.tasks)
        cells = (len(self.topologies) * len(self.gammas) * len(self.readouts)
                 * task_rows)
        if cells > MAX_SWEEP_CELLS:
            raise ConfigError(f"sweep would produce {cells} cells; "
                              f"limit is {MAX_SWEEP_CELLS}")

    def manifests(self, base_config: dict, base_seed: int,
                  input_seed: int) -> list[ExperimentManifest]:
        out = []
        for topology in self.topologies:
            for gamma in self.gammas:
                for readout in self.readouts:
                    config = dict(base_config)
                    config["topology"] = topology
                    config["gamma"] = gamma
                    out.append(ExperimentManifest(
                        kind="reservoir", config=config, tasks=self.tasks,
                        readout=readout, stm_delays=self.stm_delays,
                        n_seeds=self.n_seeds, base_seed=base_seed,
                        input_seed=input_seed))
        return out


def metrics_csv_text(manifests: Iterable[ExperimentManifest]) -> str:
    """Deterministic CSV: fixed columns, 13-significant-digit floats, rows
    sorted by configuration key."""
    rows = []
    for manifest in manifests:
        for stats in manifest.metrics.values():
            rows.append((stats.task, stats.topology, stats.readout_type,
                         stats.gamma_str, str(len(stats.per_seed)),
                         _fmt(stats.mean), _fmt(stats.std)))
    rows.sort(key=lambda r: (r[0], r[1], r[2], r[3]))
    lines = [",".join(METRICS_HEADER)]
    lines.extend(",".join(row) for row in rows)
    return "\n".join(lines) + "\n"


def trajectory_csv_text(manifest: ExperimentManifest,
                        task: str | None = None) -> str:
    """Per-step rows (step, phase, s_k, z_1..z_n, y_pred, y_target) of
    ensemble member 0.

    Predictions come from weights trained on the train window; for the
    stm task the smallest requested delay is used. The trajectory that
    ``run_experiment`` kept is reused when it matches the member's config
    and drive; otherwise the member is simulated here.
    """
    if manifest.kind != "reservoir":
        raise ConfigError("trajectories are defined for reservoir manifests")
    task = task or manifest.tasks[0]
    parse_task(task)
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
        cells = [str(k), traj.phases[k].value, _fmt(float(inputs[k]))]
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
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out_dir}: {exc}")
    written = []
    metrics_path = out_dir / "metrics.csv"
    metrics_path.write_text(metrics_csv_text(manifests))
    written.append(metrics_path)
    for manifest in manifests:
        path = out_dir / f"manifest_{manifest.cell_id}.json"
        path.write_text(manifest.to_json() + "\n")
        written.append(path)
        if trajectories and manifest.kind == "reservoir":
            tpath = out_dir / f"trajectory_{manifest.cell_id}.csv"
            tpath.write_text(trajectory_csv_text(manifest))
            written.append(tpath)
    return written
