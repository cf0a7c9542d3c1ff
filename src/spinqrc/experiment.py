"""Experiment orchestration: seeded ensembles, sweeps, and report files.

A manifest snapshots everything needed to reproduce a set of metrics:
the physical configuration, the task list, and every seed. Running a
manifest fills in per-seed metrics and fit diagnostics; emitting a
report turns manifests into a deterministic ``metrics.csv`` (and
optional per-step trajectory files). Re-running the same manifest
always reproduces the same bytes.
"""
from __future__ import annotations

import itertools
import json
import os
import reprlib
from dataclasses import MISSING, dataclass, field, fields, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Collection, Iterable, Sequence

import numpy as np

from . import tasks, workers
from .errors import ConfigError, StateInvariantError
from .esn import EsnConfig, run_esn
from .linalg import one_blas_thread
from .readout import (ReadoutType, make_features, nmse, predict, stm_capacity,
                      train_weights)
from .reservoir import ReservoirConfig, check_ranges, number, run_sequence
from .tasks import NARMA_ORDERS, gen_stm

MAX_SWEEP_ROWS = 10_000
MAX_SEEDS = 10_000  # per manifest; run_experiment builds every member first

TASK_NAMES = ("stm",) + tuple(f"narma{n}" for n in NARMA_ORDERS)

# Each manifest kind's config class, and the field of it that the manifest
# sets per ensemble member, base_seed + m; the manifest's config holds the
# class's other fields.
KINDS = {"reservoir": (ReservoirConfig, "coupling_seed"),
         "esn": (EsnConfig, "weight_seed")}

_READOUT_LABEL = {ReadoutType.PER_QUBIT: "per_qubit", ReadoutType.AVERAGED: "averaged"}

METRICS_HEADER = ("task", "topology", "readout_type", "gamma", "seed_count",
                  "mean_metric", "std_metric")


def _fmt(x: float) -> str:
    return f"{x:.12e}"


def unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A ``json.loads`` object hook: the object's dict, or ConfigError when
    a key repeats, where ``json.loads`` alone keeps its last value."""
    d = {}
    for key, value in pairs:
        if key in d:
            raise ConfigError(f"repeated key {key!r} in a JSON object")
        d[key] = value
    return d


def read_json(path: str | Path, what: str) -> object:
    """The JSON value in the UTF-8 file at ``path``, with no key repeated
    in any object; else ConfigError ``cannot read {what} {path}: ...``."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"),
                          object_pairs_hook=unique_keys)
    # ValueError covers JSONDecodeError, UnicodeDecodeError and Python's
    # limit on an integer's digits; RecursionError its nesting limit.
    except (OSError, ValueError, RecursionError, ConfigError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from None


def json_object(value: object, where: str, keys: Collection[str] | None,
                required: Collection[str] = ()) -> dict:
    """``value``, a JSON object from outside, when it is a dict whose keys
    all lie in ``keys`` (any key when ``keys`` is None) and include
    ``required``; else ConfigError naming ``where`` it came from."""
    if not isinstance(value, dict):
        raise ConfigError(
            f"{where} must be a JSON object, got {reprlib.repr(value)}")
    unknown = [] if keys is None else [k for k in value if k not in keys]
    if unknown:
        raise ConfigError(f"unknown key(s) {', '.join(map(repr, unknown))} "
                          f"in {where}; known keys: {', '.join(sorted(keys))}")
    missing = [k for k in required if k not in value]
    if missing:
        raise ConfigError(f"{where} has no {', '.join(map(repr, missing))}")
    return value


def json_list(values: object, where: str) -> tuple:
    """``values``, a JSON list from outside, as a tuple when it is a list or
    tuple that holds no value twice; else ConfigError naming ``where`` it
    came from. A list with an unhashable entry skips the duplicate test:
    every caller rejects such an entry with its own message."""
    if not isinstance(values, (list, tuple)):
        raise ConfigError(
            f"{where} must be a list, got {reprlib.repr(values)}")
    try:
        repeated = len(set(values)) < len(values)
    except TypeError:
        repeated = False
    if repeated:
        raise ConfigError(
            f"{where} has a duplicate value: {reprlib.repr(values)}")
    return tuple(values)


@dataclass(frozen=True)
class Row:
    """One metrics row of a manifest: the target ``task`` of the ``drive``
    task, fitted on the ``readout`` features of the cell whose ensemble
    member 0 runs ``config``, with its labels, its metric and the per-seed
    values behind it (none in a ``manifest_rows`` row)."""

    config: ReservoirConfig | EsnConfig
    readout: ReadoutType
    drive: str
    task: str
    topology: str
    readout_type: str
    gamma_str: str
    metric: str
    # A number field, so that check_ranges checks a stored row's values.
    per_seed: tuple[float, ...] = number((0.0,))

    @property
    def mean(self) -> float:
        return float(np.mean(self.per_seed))

    @property
    def std(self) -> float:
        return float(np.std(self.per_seed))

    @property
    def row_id(self) -> str:
        return "|".join((self.task, self.topology, self.readout_type, self.gamma_str))


@dataclass
class ExperimentManifest:
    """Reproducible description of one experiment cell, a reservoir and its
    readout or one ESN variant: ``config`` holds every field of the kind's
    config class but the member seed, which ``base_seed`` sets."""

    kind: str  # "reservoir" or "esn"
    config: dict
    tasks: tuple[str, ...]
    readout: int = number(1, 1, 2)
    stm_delays: tuple[int, ...] = number(tuple(range(11)), 0, 99)
    n_seeds: int = number(10, 1, MAX_SEEDS)
    base_seed: int = number(0, 0)
    input_seed: int = number(42, 0)
    ridge: float = number(0.0, 0)
    version: str = ""
    created: str = ""
    metrics: dict = field(default_factory=dict)
    # Each row's fit diagnostics, {"rank": [...], "condition": [...],
    # "residual_rms": [...]} with one value per ensemble member, kept by
    # run_experiment and written, but never read back: metrics.csv does
    # not depend on them.
    diagnostics: dict = field(default_factory=dict)
    # Ensemble member 0's report on the first task, kept by run_experiment
    # for trajectory_csv_text: one row per step of the drive, the Z rows,
    # the prediction and the target of its shown row; never serialized.
    trajectory: np.ndarray | None = field(default=None, repr=False,
                                          compare=False)

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ConfigError(f"unknown manifest kind {self.kind!r}")
        for name in ("tasks", "stm_delays"):
            setattr(self, name, json_list(getattr(self, name), name))
        for task in self.tasks:
            if task not in TASK_NAMES:
                raise ConfigError(
                    f"unknown task {task!r}; expected one of {TASK_NAMES}")
        check_ranges(type(self), vars(self))
        self.ridge = float(self.ridge)
        if not self.tasks:
            raise ConfigError("tasks is empty; a manifest needs a task")
        if not self.version:
            from spinqrc import __version__

            self.version = __version__
        if not self.created:
            self.created = datetime.now(timezone.utc).isoformat()
        manifest_rows(self)  # builds, so checks, member 0's config

    def to_json(self) -> str:
        d = {f.name: getattr(self, f.name) for f in fields(self)
             if f.name != "trajectory"}
        d["metrics"] = {k: list(v.per_seed) for k, v in self.metrics.items()}
        return json.dumps(d, indent=2, sort_keys=True)

    @staticmethod
    def from_json(value: object) -> "ExperimentManifest":
        """The manifest that ``value``, a parsed ``to_json`` text, describes;
        ConfigError for any other value. Each stored row holds only its
        per-seed values; ``manifest_rows`` gives the rest."""
        stored = [f for f in fields(ExperimentManifest)
                  if f.name != "trajectory"]
        d = json_object(value, "the manifest", [f.name for f in stored],
                        [f.name for f in stored
                         if f.default is f.default_factory is MISSING
                         or f.name in ("version", "created")])
        for name in ("version", "created"):
            if not isinstance(d[name], str) or not d[name]:
                raise ConfigError(f"{name} must be a non-empty string, "
                                  f"got {reprlib.repr(d[name])}")
        metrics = json_object(d.pop("metrics", {}), "metrics", None)
        d.pop("diagnostics", None)
        m = ExperimentManifest(**d)
        if metrics:  # a stored run: its rows must be the manifest's own
            derived = {row.row_id: row for row in manifest_rows(m)}
            if set(metrics) != set(derived):
                raise ConfigError(f"the stored rows {sorted(metrics)} are not "
                                  f"the manifest's rows {sorted(derived)}")
            for key, values in metrics.items():
                try:
                    if not isinstance(values, list):
                        raise ConfigError("per_seed must be a list, got "
                                          f"{reprlib.repr(values)}")
                    check_ranges(Row, {"per_seed": values})
                    if len(values) != m.n_seeds:
                        raise ConfigError(
                            f"per_seed must hold n_seeds = {m.n_seeds} "
                            f"values, got {len(values)}")
                except ConfigError as exc:
                    raise ConfigError(f"stored row {key}: {exc}") from None
                m.metrics[key] = replace(derived[key], per_seed=tuple(values))
        return m

    @property
    def cell_id(self) -> str:
        task_tag = self.tasks[0] if len(self.tasks) == 1 else "multi"
        row = manifest_rows(self)[0]
        if self.kind == "esn":
            return f"{task_tag}_{row.topology}"
        return f"{task_tag}_{row.topology}_g{row.gamma_str}_r{self.readout}"


def manifest_rows(manifest: ExperimentManifest) -> list[Row]:
    """Every metrics row of a manifest, task by task, target by target (one
    per STM delay, in order). Builds member 0's config, which checks it,
    and never another member's. An ESN manifest never reads ``readout``,
    so it must keep its default. A schedule too short for the fits fails
    here, before anything runs: ``n_fb`` below the readout's feature
    columns, or ``n_test`` below the two points an STM capacity needs."""
    if manifest.kind == "esn" and manifest.readout != 1:
        raise ConfigError("a manifest of kind 'esn' never reads readout, "
                          f"so it must be 1; got {manifest.readout}")
    cls, seed_field = KINDS[manifest.kind]
    keys = [f.name for f in fields(cls) if f.name != seed_field]
    config = cls(**json_object(manifest.config, "config", keys),
                 **{seed_field: manifest.base_seed})
    if manifest.kind == "esn":
        readout, columns = ReadoutType.PER_QUBIT, config.n_nodes + 1
        label, gamma_str = f"esn{config.variant}", ""
    else:
        readout = ReadoutType(manifest.readout)
        columns = config.n_qubits + 1 if readout is ReadoutType.PER_QUBIT else 2
        label, gamma_str = config.topology.value, repr(float(config.gamma))
    if config.n_fb < columns:
        raise ConfigError(f"n_fb must be an integer >= {columns}, one training "
                          "step per feature column of the readout, got "
                          f"{config.n_fb}")
    if "stm" in manifest.tasks:
        if not manifest.stm_delays:
            raise ConfigError("stm task requires at least one delay")
        if config.n_test < 2:
            raise ConfigError("n_test must be an integer >= 2 for the stm "
                              f"task's capacity, got {config.n_test}")
    return [Row(config, readout, drive, task=target, topology=label,
                readout_type=_READOUT_LABEL[readout], gamma_str=gamma_str,
                metric="nmse" if drive.startswith("narma") else "stm_capacity",
                per_seed=())
            for drive in manifest.tasks
            for target in ([f"stm_tau{tau:02d}" for tau in manifest.stm_delays]
                           if drive == "stm" else [drive])]


def _task_drive(task: str, length: int, input_seed: int) -> np.ndarray:
    """A task's drive: the seeded binary stream for stm, the triple-sine
    input (the same for every order and seed) for NARMA."""
    if task == "stm":
        return gen_stm(length, input_seed)
    # Called through the module so that tracing wrappers on it see the call.
    return tasks.gen_narma_input(length)


def _task_targets(task: str, inputs: np.ndarray,
                  delays: Iterable[int]) -> list[np.ndarray]:
    """The targets of a task on the given drive, in ``manifest_rows``'
    order: the drive delayed by each of ``delays`` for stm, the recurrence
    output for NARMA."""
    if task != "stm":
        return [tasks.gen_narma_target(inputs, int(task[5:]))]
    return [np.concatenate((np.zeros(tau), inputs))[:len(inputs)]
            for tau in delays]


def _simulate(config: ReservoirConfig | EsnConfig,
              inputs: np.ndarray) -> np.ndarray:
    """One member's per-step rows, a reservoir's Z expectations or an ESN's
    states; a StateInvariantError names the member."""
    try:
        if isinstance(config, EsnConfig):
            return run_esn(config, inputs)
        return run_sequence(config, inputs).z_rows
    except StateInvariantError as exc:
        member = (f"variant {config.variant}, weight_seed {config.weight_seed}"
                  if isinstance(config, EsnConfig) else
                  f"topology {config.topology.value}, n_qubits "
                  f"{config.n_qubits}, gamma {config.gamma!r}, coupling_seed "
                  f"{config.coupling_seed}")
        raise StateInvariantError(f"{exc} (member: {member})") from None


def _simulate_all(jobs: list[tuple]) -> list[tuple]:
    """``_simulate`` of every (config, inputs) job, in worker processes.

    Jobs are grouped by draw, and each group runs its jobs in the given
    order in one process. A reservoir's draw is its ``coupling_draw``, so
    its group builds its U once. An ESN's draw is its weight seed, which
    all its variants share; that group shares only its process, since
    ``run_esn`` draws W and w_in on every call. ``workers.run_groups``
    spreads the groups over processes, all at one BLAS thread, so each
    job computes the same bits in whichever process runs it.
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
    """Fill each manifest (one cell each) with its metrics, one row per
    ``manifest_rows`` entry, by running its seed ensemble, and with the
    ``rank``, ``condition`` and ``residual_rms`` of each row's fit per
    member (``diagnostics``).

    Ensemble member m uses coupling (or weight) seed ``base_seed + m``; the
    input stream is shared by all members. ESN manifests that differ only
    in variant share W and w_in (same weight seed), so their metric
    differences isolate the history depth. Within one call every distinct
    task stream is generated once, and every distinct (config, drive)
    trajectory is simulated once and shared by each cell and target that
    uses it: cells that differ only in readout, and tasks that share a
    drive (all NARMA orders). Every trajectory is simulated before any
    fit, in worker processes (``_simulate_all``); the results do not
    depend on how many. Returns the manifests, filled in place; each
    reservoir manifest also keeps, for ``trajectory_csv_text``, member 0's
    drive, Z rows, prediction and target of the first task's shown row:
    its one target for NARMA, the smallest delay's for stm.
    """
    streams: dict[tuple, tuple[np.ndarray, list[np.ndarray]]] = {}
    plans = []
    for manifest in cells:
        cell_rows = manifest_rows(manifest)
        config = cell_rows[0].config
        seed_field = KINDS[manifest.kind][1]
        members = [replace(config, **{seed_field: manifest.base_seed + m})
                   for m in range(manifest.n_seeds)]
        for drive, rows in itertools.groupby(cell_rows, lambda r: r.drive):
            key = (drive, config.total_steps, manifest.input_seed,
                   manifest.stm_delays)
            if key not in streams:
                inputs = _task_drive(*key[:3])
                streams[key] = inputs, _task_targets(drive, inputs, key[3])
            plans.append((manifest, members, list(rows), *streams[key]))

    jobs: dict[tuple, tuple] = {}
    for _, members, _, inputs, _ in plans:
        for config in members:
            jobs.setdefault((config, inputs.tobytes()), (config, inputs))
    simulated = dict(zip(jobs, _simulate_all(list(jobs.values()))))

    for manifest in cells:
        manifest.metrics, manifest.diagnostics = {}, {}
    for manifest, members, rows, inputs, targets in plans:
        bits = inputs.tobytes()
        shown = None  # the index of the shown row among rows, if any
        if rows[0].drive == manifest.tasks[0] and manifest.kind == "reservoir":
            delays = manifest.stm_delays if rows[0].drive == "stm" else (0,)
            shown = delays.index(min(delays))
        # Each row's (score, fit) per member.
        fitted: list[list[tuple]] = [[] for _ in rows]
        for m, config in enumerate(members):
            z_rows = simulated[(config, bits)]
            feats = make_features(z_rows, rows[0].readout)
            tr, te = config.train_slice, config.test_slice
            for i, (row, target, fits) in enumerate(
                    zip(rows, targets, fitted)):
                weights = train_weights(feats[tr], target[tr],
                                        ridge=manifest.ridge)
                score = nmse if row.metric == "nmse" else stm_capacity
                fits.append((score(predict(weights, feats[te]), target[te]),
                             weights))
                if (m, i) == (0, shown):
                    manifest.trajectory = np.column_stack(
                        (inputs, z_rows, predict(weights, feats), target))
        for row, fits in zip(rows, fitted):
            values, weights = zip(*fits)
            manifest.metrics[row.row_id] = replace(row, per_seed=values)
            manifest.diagnostics[row.row_id] = {
                "rank": [w.rank for w in weights],
                "condition": [w.condition for w in weights],
                "residual_rms": [w.residual_rms for w in weights]}
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
            # The configs built from the entries check them.
            values = json_list(getattr(self, axis.name),
                               f"sweep axis {axis.name}")
            if not values:
                raise ConfigError(f"sweep axis {axis.name} is empty")
            object.__setattr__(self, axis.name, values)

    def manifests(self, base_config: dict,
                  **manifest_fields) -> list[ExperimentManifest]:
        """One reservoir manifest per grid point, each given
        ``manifest_fields`` unchanged; the manifest defaults the rest.
        Every cell has the first one's rows, so a grid of more than
        ``MAX_SWEEP_ROWS`` rows fails before a second cell is built."""
        cells = (ExperimentManifest(
                     kind="reservoir", readout=readout,
                     config=dict(base_config, topology=topology, gamma=gamma),
                     **manifest_fields)
                 for topology in self.topologies for gamma in self.gammas
                 for readout in self.readouts)
        first = next(cells)
        rows = (len(manifest_rows(first)) * len(self.topologies)
                * len(self.gammas) * len(self.readouts))
        if rows > MAX_SWEEP_ROWS:
            raise ConfigError(f"sweep would produce {rows} rows; limit is "
                              f"{MAX_SWEEP_ROWS}")
        return [first, *cells]


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


def write_files(out_dir: Path, files: list[tuple[str, str]]) -> list[Path]:
    """Create ``out_dir`` and write each (name, text) of ``files`` into it,
    in order, each through a temporary file and ``os.replace``: a process
    that dies leaves each file old or whole. Returns the paths. A repeated
    name, or an OSError, is a ConfigError naming the path; the former is
    raised before anything is created or written."""
    seen = set()
    for name, _ in files:
        if name in seen:
            raise ConfigError(f"the report would write {out_dir / name} twice")
        seen.add(name)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out_dir}: {exc}")
    written = []
    for name, text in files:
        path, tmp = out_dir / name, out_dir / f".{name}.{os.getpid()}.tmp"
        try:
            tmp.write_text(text)
            os.replace(tmp, path)
        except OSError as exc:
            tmp.unlink(missing_ok=True)
            raise ConfigError(f"cannot write {path}: {exc}") from None
        written.append(path)
    return written


def trajectory_csv_text(manifest: ExperimentManifest) -> str:
    """Per-step rows (step, phase, s_k, z_1..z_n, y_pred, y_target) of
    ensemble member 0 on the manifest's first task, as ``run_experiment``
    kept them; ConfigError for a manifest it has not run.

    The prediction is that of the fit that scored member 0's row, trained
    on the train window; for the stm task the smallest requested delay is
    shown.
    """
    report = manifest.trajectory
    if report is None:  # an ESN manifest, or one run_experiment has not run
        raise ConfigError("the manifest holds no trajectory: run a reservoir "
                          "manifest with run_experiment first")
    config = manifest_rows(manifest)[0].config
    z_cols = [f"z_{i}" for i in range(1, config.n_qubits + 1)]
    lines = [",".join(["step", "phase", "s_k", *z_cols, "y_pred", "y_target"])]
    for k, values in enumerate(report):
        lines.append(",".join([str(k), config.phase_of(k),
                               *map(_fmt, values)]))
    return "\n".join(lines) + "\n"


def emit_report(manifests: list[ExperimentManifest], out_dir: Path,
                trajectories: bool = False) -> list[Path]:
    """Write metrics.csv, one manifest JSON per experiment, and optional
    trajectory CSVs, each built before any is written. Returns the paths."""
    if not manifests:
        raise ConfigError("nothing to report")
    files = [("metrics.csv", metrics_csv_text(manifests))]
    for manifest in manifests:
        files.append((f"manifest_{manifest.cell_id}.json",
                      manifest.to_json() + "\n"))
        if trajectories and manifest.kind == "reservoir":
            files.append((f"trajectory_{manifest.cell_id}.csv",
                          trajectory_csv_text(manifest)))
    return write_files(Path(out_dir), files)
