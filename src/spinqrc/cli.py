"""Command-line front end.

Subcommands:

* ``run``    one experiment cell (topology, gamma, readout, task ensemble)
* ``sweep``  cartesian grid of cells
* ``esn``    echo-state-network baseline comparison
* ``report`` re-emit metrics.csv from stored manifest files

Exit codes: 0 on success, 2 for configuration problems (a run that the
configured sizes make too large for memory among them), 3 when a
numerical invariant is violated during a run.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

from .errors import (ConfigError, DivergenceError, SpinChainError,
                     StateInvariantError)
from .esn import VARIANTS, EsnConfig
from .experiment import (TASK_NAMES, ExperimentManifest, SweepGrid,
                         emit_report, json_list, json_object,
                         metrics_csv_text, read_json, run_experiment,
                         write_files)
from .reservoir import ReservoirConfig, Schedule, Topology

# Every ReservoirConfig field but the coupling seed, which each ensemble
# member takes from the seeds. The phase lengths among them (PHASE_KEYS)
# set the ESN's schedule as well; the `esn` block holds the other EsnConfig
# fields but the variant, which its `variants` list sets one manifest each,
# and the weight seed, which each ensemble member takes from the seeds.
RESERVOIR_CONFIG_KEYS = tuple(f.name for f in fields(ReservoirConfig)
                              if f.name != "coupling_seed")
PHASE_KEYS = tuple(f.name for f in fields(Schedule))
ESN_CONFIG_KEYS = tuple(
    f.name for f in fields(EsnConfig)
    if f.name not in PHASE_KEYS + ("variant", "weight_seed"))
# The top-level keys that set a manifest field in `run`, `sweep` and `esn`,
# and that field; a flag of the same name overrides the key, and `--task X`
# overrides `tasks` with [X]. A field that neither sets takes the manifest's
# default; the tasks, which have none there, take the subcommand's
# DEFAULT_TASKS.
MANIFEST_KEYS = {"seeds": "n_seeds", "seed": "base_seed",
                 "input_seed": "input_seed", "ridge": "ridge",
                 "stm_delays": "stm_delays", "tasks": "tasks"}
DEFAULT_TASKS = {"run": ("narma2",), "sweep": TASK_NAMES,
                 "esn": ("stm", "narma2", "narma5", "narma10", "narma15")}

# Every key a config file may hold, at the top level and in the blocks that
# configure ``sweep`` and ``esn``; any other key is a configuration error.
CONFIG_KEYS = RESERVOIR_CONFIG_KEYS + tuple(MANIFEST_KEYS) + (
    "readout", "trajectory", "sweep", "esn")
BLOCK_KEYS = {"sweep": tuple(f.name for f in fields(SweepGrid)),
              "esn": ESN_CONFIG_KEYS + ("variants",)}

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    data = json_object(read_json(path, "config file"), f"config file {path}",
                       CONFIG_KEYS)
    for block, keys in BLOCK_KEYS.items():
        json_object(data.get(block, {}), f"the {block} block of {path}", keys)
    return data


def _reservoir_config_dict(file_cfg: dict, args: argparse.Namespace) -> dict:
    config = {k: file_cfg[k] for k in RESERVOIR_CONFIG_KEYS if k in file_cfg}
    config.update({k: getattr(args, k) for k in ("topology", "gamma")
                   if getattr(args, k) is not None})
    return config


def _manifest_fields(file_cfg: dict, args: argparse.Namespace,
                     keys: dict = MANIFEST_KEYS) -> dict:
    """The manifest fields that the file or a flag sets, passed through as
    given, and the subcommand's default tasks; the manifest checks them and
    defaults the others."""
    given = {name: file_cfg[key] for key, name in keys.items()
             if key in file_cfg}
    given.update({name: getattr(args, key) for key, name in keys.items()
                  if getattr(args, key, None) is not None})
    if args.task is not None:
        given["tasks"] = (args.task,)
    given.setdefault("tasks", DEFAULT_TASKS[args.command])
    return given


def _cmd_run(args: argparse.Namespace) -> int:
    file_cfg = _load_config(args.config)
    manifest = ExperimentManifest(
        kind="reservoir",
        config=_reservoir_config_dict(file_cfg, args),
        **_manifest_fields(file_cfg, args,
                           dict(MANIFEST_KEYS, readout="readout")),
    )
    return _run_and_report([manifest], args.out, trajectories=True)


def _cmd_sweep(args: argparse.Namespace) -> int:
    file_cfg = _load_config(args.config)
    grid_kwargs = dict(file_cfg.get("sweep", {}))
    for axis, flag in (("topologies", args.topology), ("gammas", args.gamma),
                       ("readouts", args.readout)):
        if flag is not None:
            grid_kwargs[axis] = (flag,)
    trajectories = file_cfg.get("trajectory", False)
    if not isinstance(trajectories, bool):
        raise ConfigError(
            f"trajectory must be true or false, got {trajectories!r}")
    manifests = SweepGrid(**grid_kwargs).manifests(
        _reservoir_config_dict(file_cfg, args),
        **_manifest_fields(file_cfg, args))
    return _run_and_report(manifests, args.out, trajectories=trajectories)


def _cmd_esn(args: argparse.Namespace) -> int:
    file_cfg = _load_config(args.config)
    config = dict(file_cfg.get("esn", {}))  # ESN_CONFIG_KEYS and variants
    given = _manifest_fields(file_cfg, args)
    variants = json_list(config.pop("variants", VARIANTS), "variants")
    if not variants:
        raise ConfigError("need at least one ESN variant")
    config.update({k: file_cfg[k] for k in PHASE_KEYS if k in file_cfg})
    manifests = [ExperimentManifest(kind="esn", config=dict(config, variant=v),
                                    **given) for v in variants]
    return _run_and_report(manifests, args.out)


def _run_and_report(manifests: list[ExperimentManifest], out: str,
                    trajectories: bool = False) -> int:
    """Run the manifests, write their report and print each written path."""
    run_experiment(manifests)
    for path in emit_report(manifests, Path(out), trajectories=trajectories):
        print(path)
    return EXIT_OK


def _cmd_report(args: argparse.Namespace) -> int:
    out_dir = Path(args.out)
    if args.config:
        paths = [Path(args.config)]
    else:
        paths = sorted(out_dir.glob("manifest_*.json"))
    if not paths:
        raise ConfigError(f"no manifest files found under {out_dir}")
    manifests = []
    for path in paths:
        value = read_json(path, "manifest")
        try:
            manifests.append(ExperimentManifest.from_json(value))
        except ConfigError as exc:
            raise ConfigError(f"cannot load manifest {path}: {exc}")
    print(*write_files(out_dir,
                       [("metrics.csv", metrics_csv_text(manifests))]))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinqrc",
        description="Reservoir computing on a dissipative spin-qubit array")
    sub = parser.add_subparsers(dest="command", required=True)
    # Each subcommand takes the first ``count`` of these, the ones it reads.
    options = (
        ("--config", dict(help="JSON config file")),
        ("--out", dict(default="out", help="output directory")),
        ("--seed", dict(type=int, help="base seed for the ensemble")),
        ("--seeds", dict(type=int, help="ensemble size")),
        ("--task", dict(choices=TASK_NAMES)),
        ("--topology", dict(choices=[t.value for t in Topology])),
        ("--gamma", dict(type=float)),
        ("--readout", dict(type=int, choices=[1, 2])))
    for name, handler, count in (("run", _cmd_run, 8), ("sweep", _cmd_sweep, 8),
                                 ("esn", _cmd_esn, 5),
                                 ("report", _cmd_report, 2)):
        p = sub.add_parser(name)
        for flag, kwargs in options[:count]:
            p.add_argument(flag, **kwargs)
        p.set_defaults(handler=handler)
    return parser


def exit_code_for(exc: SpinChainError) -> int:
    """Map package errors onto the documented exit codes."""
    if isinstance(exc, (StateInvariantError, DivergenceError)):
        return EXIT_NUMERICAL
    return EXIT_CONFIG


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except SpinChainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exit_code_for(exc)
    except MemoryError as exc:  # sized by the configuration
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
