"""Command-line front end.

Subcommands:

* ``run``    one experiment cell (topology, gamma, readout, task ensemble)
* ``sweep``  cartesian grid of cells
* ``esn``    echo-state-network baseline comparison
* ``report`` re-emit metrics.csv from stored manifest files

Exit codes: 0 on success, 2 for configuration problems, 3 when a
numerical invariant is violated during a run.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .errors import (ConfigError, DivergenceError, SpinChainError,
                     StateInvariantError, ValidationError)
from .esn import VARIANTS
from .experiment import (DEFAULT_SEED_COUNT, DEFAULT_STM_DELAYS,
                         ExperimentManifest, SweepGrid, metrics_csv_text,
                         run_experiment, emit_report)

RESERVOIR_CONFIG_KEYS = ("n_qubits", "topology", "gamma", "theta0", "n_pre",
                         "n_fb", "n_test", "input_qubit")
ESN_CONFIG_KEYS = ("n_nodes", "w_scale", "w_in_scale", "n_pre", "n_fb", "n_test")
SWEEP_KEYS = ("topologies", "gammas", "readouts", "tasks", "stm_delays")

# Every key a config file may hold, at the top level and in the blocks that
# configure ``sweep`` and ``esn``; any other key is a configuration error.
CONFIG_KEYS = RESERVOIR_CONFIG_KEYS + (
    "task", "tasks", "readout", "seed", "seeds", "input_seed", "ridge",
    "stm_delays", "trajectory", "sweep", "esn")
BLOCK_KEYS = {"sweep": SWEEP_KEYS + ("n_seeds",),
              "esn": ESN_CONFIG_KEYS + ("variants",)}

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    _check_keys(f"config file {path}", data, CONFIG_KEYS)
    for block, keys in BLOCK_KEYS.items():
        block_cfg = data.get(block, {})
        if not isinstance(block_cfg, dict):
            raise ConfigError(f"{block!r} must be a JSON object")
        _check_keys(f"the {block!r} block of {path}", block_cfg, keys)
    return data


def _check_keys(where: str, data: dict, known: tuple[str, ...]) -> None:
    unknown = sorted(set(data) - set(known))
    if unknown:
        raise ConfigError(f"unknown key(s) {', '.join(map(repr, unknown))} in "
                          f"{where}; known keys: {', '.join(sorted(known))}")


def _reservoir_config_dict(file_cfg: dict, args: argparse.Namespace) -> dict:
    config = {k: file_cfg[k] for k in RESERVOIR_CONFIG_KEYS if k in file_cfg}
    if args.topology:
        config["topology"] = args.topology
    if args.gamma is not None:
        config["gamma"] = args.gamma
    return config


def _common_manifest_fields(file_cfg: dict, args: argparse.Namespace) -> dict:
    """Manifest values, passed through as given; the manifest checks them."""
    fields = {}
    fields["n_seeds"] = (args.seeds if args.seeds is not None
                         else file_cfg.get("seeds", DEFAULT_SEED_COUNT))
    fields["base_seed"] = (args.seed if args.seed is not None
                           else file_cfg.get("seed", 0))
    fields["input_seed"] = file_cfg.get("input_seed", 42)
    fields["ridge"] = file_cfg.get("ridge", 0.0)
    fields["stm_delays"] = file_cfg.get("stm_delays", DEFAULT_STM_DELAYS)
    return fields


def _cmd_run(args: argparse.Namespace) -> int:
    file_cfg = _load_config(args.config)
    task = args.task or file_cfg.get("task", "narma2")
    manifest = ExperimentManifest(
        kind="reservoir",
        config=_reservoir_config_dict(file_cfg, args),
        tasks=(task,),
        readout=(args.readout if args.readout is not None
                 else file_cfg.get("readout", 1)),
        **_common_manifest_fields(file_cfg, args),
    )
    return _run_and_report([manifest], args.out, trajectories=True)


def _cmd_sweep(args: argparse.Namespace) -> int:
    file_cfg = _load_config(args.config)
    sweep_cfg = file_cfg.get("sweep", {})
    grid_kwargs = {k: sweep_cfg[k] for k in SWEEP_KEYS if k in sweep_cfg}
    if args.topology:
        grid_kwargs["topologies"] = (args.topology,)
    if args.gamma is not None:
        grid_kwargs["gammas"] = (args.gamma,)
    if args.readout is not None:
        grid_kwargs["readouts"] = (args.readout,)
    if args.task:
        grid_kwargs["tasks"] = (args.task,)
    common = _common_manifest_fields(file_cfg, args)
    if "n_seeds" in sweep_cfg:
        common["n_seeds"] = sweep_cfg["n_seeds"]
    grid = SweepGrid(n_seeds=common["n_seeds"], **grid_kwargs)
    manifests = [replace(manifest, ridge=common["ridge"]) for manifest in
                 grid.manifests(_reservoir_config_dict(file_cfg, args),
                                base_seed=common["base_seed"],
                                input_seed=common["input_seed"])]
    return _run_and_report(manifests, args.out,
                           trajectories=bool(file_cfg.get("trajectory", False)))


def _cmd_esn(args: argparse.Namespace) -> int:
    file_cfg = _load_config(args.config)
    esn_cfg = file_cfg.get("esn", {})
    config = {k: esn_cfg[k] for k in ESN_CONFIG_KEYS if k in esn_cfg}
    for k in ("n_pre", "n_fb", "n_test"):
        if k in file_cfg and k not in config:
            config[k] = file_cfg[k]
    if args.task:
        tasks = [args.task]
    else:
        tasks = file_cfg.get(
            "tasks", ("stm", "narma2", "narma5", "narma10", "narma15"))
    manifest = ExperimentManifest(
        kind="esn",
        config=config,
        tasks=tasks,
        variants=esn_cfg.get("variants", VARIANTS),
        **_common_manifest_fields(file_cfg, args),
    )
    return _run_and_report([manifest], args.out)


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
        try:
            manifests.append(ExperimentManifest.from_json(path.read_text()))
        except (OSError, json.JSONDecodeError, KeyError, TypeError) as exc:
            raise ConfigError(f"cannot load manifest {path}: {exc}")
    metrics_path = out_dir / "metrics.csv"
    out_dir.mkdir(parents=True, exist_ok=True)
    metrics_path.write_text(metrics_csv_text(manifests))
    print(metrics_path)
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
        ("--task", dict(choices=["stm", "narma2", "narma5", "narma10",
                                 "narma15", "narma20"])),
        ("--topology", dict(choices=["linear", "ring"])),
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
    if isinstance(exc, (ConfigError, ValidationError)):
        return EXIT_CONFIG
    return EXIT_CONFIG


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except SpinChainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exit_code_for(exc)


if __name__ == "__main__":
    sys.exit(main())
