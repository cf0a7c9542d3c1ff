"""In-memory spans around calls into spinqrc's public functions.

The benchmark records spans from its own files: ``install`` replaces
module attributes (for example ``spinqrc.experiment.run_sequence``) with
wrappers that time each call. A function that a later refactor removes
is recorded in ``Tracer.absent`` instead of raising. Spans nest on a
single thread, so a span's self time is its duration minus the summed
durations of its direct children.

This module is stdlib-only; ``layer_metrics``, ``esn_metrics`` and
``scan_metrics`` turn exported spans into the per-layer metrics the
benchmark prints.
"""
from __future__ import annotations

import dataclasses
import functools
import hashlib
import importlib
import math
import os
import time
from collections import defaultdict


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []  # [id, parent, name, start, end, attrs]
        self.absent: list[str] = []
        self._stack: list[int] = []

    def wrap(self, module_name: str, attr: str, name: str, attrs_fn=None) -> None:
        """Replace ``module_name.attr`` with a span-recording wrapper."""
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            module = None
        fn = getattr(module, attr, None)
        if not callable(fn):
            self.absent.append(f"{module_name}.{attr}")
            return

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(self.spans), self._stack[-1] if self._stack else None,
                    name, self.clock(), None, {}]
            self.spans.append(span)
            self._stack.append(span[0])
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span[4] = self.clock()
                self._stack.pop()
                if attrs_fn is not None:
                    span[5] = attrs_fn(args, kwargs, result)

        setattr(module, attr, traced)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


def _config_fields(config) -> dict:
    return {f.name: getattr(config, f.name) for f in dataclasses.fields(config)}


def _evolve_attrs(args, kwargs, result):
    # A simulation is determined by the physical config (everything but the
    # unused input_seed) and the drive; equal keys mean repeated work.
    config = _arg(args, kwargs, 0, "config")
    inputs = _arg(args, kwargs, 1, "inputs")
    fields = _config_fields(config)
    fields.pop("input_seed", None)
    digest = hashlib.sha1(repr(sorted(fields.items())).encode())
    digest.update(inputs.tobytes())
    return {"key": digest.hexdigest(), "steps": len(inputs),
            "n": fields.get("n_qubits")}


def _build_attrs(args, kwargs, result):
    # The propagator depends on the couplings and the step time, not gamma.
    fields = _config_fields(_arg(args, kwargs, 0, "config"))
    key = tuple(str(fields.get(k)) for k in
                ("n_qubits", "topology", "coupling_seed", "theta0"))
    return {"key": "|".join(key), "n": fields.get("n_qubits")}


def _esn_attrs(args, kwargs, result):
    return {"steps": len(_arg(args, kwargs, 1, "inputs"))}


def _report_attrs(args, kwargs, result):
    # ``result`` is None when emit_report raised.
    return {"bytes": sum(os.path.getsize(path) for path in result or ())}


# (module, attribute, span name, attribute recorder). Each binding a caller
# looks up is wrapped, so the same function may appear under two modules.
TARGETS = (
    ("spinqrc.cli", "main", "cli", None),
    ("spinqrc.cli", "run_experiment", "experiment.loop", None),
    ("spinqrc.cli", "run_esn_comparison", "experiment.loop", None),
    ("spinqrc.cli", "emit_report", "experiment.report", _report_attrs),
    ("spinqrc.experiment", "run_sequence", "reservoir.evolve", _evolve_attrs),
    ("spinqrc.reservoir", "run_sequence", "reservoir.evolve", _evolve_attrs),
    ("spinqrc.reservoir", "evolution_operator", "reservoir.build", _build_attrs),
    ("spinqrc.reservoir", "build_hamiltonian", "qubits.hamiltonian", None),
    ("spinqrc.reservoir", "unitary_exp", "linalg.unitary_exp", None),
    ("spinqrc.experiment", "train_weights", "readout.fit", None),
    ("spinqrc.experiment", "make_features", "readout.other", None),
    ("spinqrc.experiment", "predict", "readout.other", None),
    ("spinqrc.experiment", "nmse", "readout.other", None),
    ("spinqrc.experiment", "stm_capacity", "readout.other", None),
    ("spinqrc.experiment", "gen_stm", "tasks", None),
    ("spinqrc.tasks", "gen_narma_input", "tasks", None),
    ("spinqrc.tasks", "gen_narma_target", "tasks", None),
    ("spinqrc.experiment", "run_esn", "esn", _esn_attrs),
)


def install(tracer: Tracer) -> None:
    for module_name, attr, name, attrs_fn in TARGETS:
        tracer.wrap(module_name, attr, name, attrs_fn)


def _span_table(spans):
    """Group spans by name as (duration, self time, attrs) triples."""
    duration = {s[0]: s[4] - s[3] for s in spans}
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        if s[1] is not None:
            covered[s[1]] += duration[s[0]]
    table = defaultdict(list)
    for s in spans:
        table[s[2]].append((duration[s[0]], duration[s[0]] - covered[s[0]], s[5]))
    return table


def _rank_quantile(values, q):
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _useful_ratio(rows):
    return len({a["key"] for _, _, a in rows}) / len(rows) if rows else 0.0


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer counts and times of one traced job. Ratios over a layer
    that was never called read 0."""
    table = _span_table(spans)

    def self_s(name):
        return sum(s for _, s, _ in table[name])

    def dur_s(name):
        return sum(d for d, _, _ in table[name])

    evolve = table["reservoir.evolve"]
    evolve_steps = sum(a["steps"] for _, _, a in evolve)
    evolve_ms = [s * 1e3 for _, s, _ in evolve]
    fits = table["readout.fit"]
    return {
        "reservoir.evolve.calls": len(evolve),
        "reservoir.evolve.useful_ratio": _useful_ratio(evolve),
        "reservoir.evolve.self_s": self_s("reservoir.evolve"),
        "reservoir.evolve.us_per_step":
            1e6 * self_s("reservoir.evolve") / evolve_steps if evolve_steps else 0.0,
        "reservoir.evolve.call_ms.p50": _rank_quantile(evolve_ms, 0.5),
        "reservoir.evolve.call_ms.p90": _rank_quantile(evolve_ms, 0.9),
        "reservoir.evolve.call_ms.samples": len(evolve_ms),
        "reservoir.build.calls": len(table["reservoir.build"]),
        "reservoir.build.useful_ratio": _useful_ratio(table["reservoir.build"]),
        "reservoir.build.self_s": self_s("reservoir.build"),
        "reservoir.build.hamiltonian_s": dur_s("qubits.hamiltonian"),
        "linalg.unitary_exp_s": dur_s("linalg.unitary_exp"),
        "readout.fit.calls": len(fits),
        "readout.fit.self_s": self_s("readout.fit"),
        "readout.fit.us_per_call":
            1e6 * self_s("readout.fit") / len(fits) if fits else 0.0,
        "readout.other.self_s": self_s("readout.other"),
        "tasks.calls": len(table["tasks"]),
        "tasks.self_s": self_s("tasks"),
        "experiment.loop.self_s": self_s("experiment.loop"),
        "experiment.report.self_s": self_s("experiment.report"),
        "experiment.report.bytes":
            sum(a["bytes"] for _, _, a in table["experiment.report"]),
        "cli.self_s": self_s("cli"),
    }


def esn_metrics(spans) -> dict[str, float]:
    """Calls and time of the ESN layer, from a traced ``spinqrc esn`` job."""
    esn = _span_table(spans)["esn"]
    self_s = sum(s for _, s, _ in esn)
    steps = sum(a["steps"] for _, _, a in esn)
    return {"esn.calls": len(esn), "esn.self_s": self_s,
            "esn.us_per_step": 1e6 * self_s / steps if steps else 0.0}


SCAN_BUILD_SIZES = (4, 6, 8, 10)


def scan_metrics(spans) -> dict[str, float]:
    """Step cost and propagator build time per qubit count, from a scan job
    that makes one run_sequence call per size."""
    table = _span_table(spans)
    out = {}
    for _, self_time, attrs in table["reservoir.evolve"]:
        out[f"reservoir.evolve.us_per_step.n{attrs['n']}"] = (
            1e6 * self_time / attrs["steps"])
    for dur, _, attrs in table["reservoir.build"]:
        if attrs["n"] in SCAN_BUILD_SIZES:
            out[f"reservoir.build_s.n{attrs['n']}"] = dur
    return out
