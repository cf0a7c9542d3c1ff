"""Property test of the command line's input boundary: generated config
files and stored manifests, read by ``cli.main`` in this process at one
worker, end in exit 0, 2 or 3. A rejection prints one ``error:`` line and
writes nothing."""
import contextlib
import io
import json
import math
import tempfile
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinqrc import cli, workers
from spinqrc.esn import EsnConfig
from spinqrc.experiment import ExperimentManifest
from spinqrc.reservoir import ReservoirConfig

# Derandomized and without an example database, so that every run checks
# the same examples and writes nothing.
PROPERTY = settings(max_examples=200, deadline=None, derandomize=True,
                    database=None)


class Raw(str):
    """JSON text written as it is: values that ``json.dumps`` cannot write
    (an integer past Python's digit limit) or that it cannot nest (past
    the recursion limit)."""


class Obj(tuple):
    """A JSON object as its (key, value) pairs, so that a key can repeat."""


def to_text(value) -> str:
    if isinstance(value, Raw):
        return value
    if isinstance(value, Obj):
        return "{" + ", ".join(f"{json.dumps(k)}: {to_text(v)}"
                               for k, v in value) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(map(to_text, value)) + "]"
    return json.dumps(value)


def nested(depth: int) -> Raw:
    return Raw("[" * depth + "1" + "]" * depth)


# Values of the wrong kind for most keys, and the huge and the deep.
ODD_VALUES = ["x", True, None, [], {}, 1.5, -1, 0, [[1]], {"a": 1},
              ["stm", "narma2"], [[[[[1]]]]], 2**64, 10**400,
              Raw("1" + "0" * 4999), nested(2000), float("inf"),
              float("nan")]

BASE_N_QUBITS = 3
# A 10-step schedule that every subcommand runs, on a small grid.
BASE_CONFIG = {
    "n_qubits": BASE_N_QUBITS, "n_pre": 3, "n_fb": 5, "n_test": 2,
    "seeds": 2, "tasks": ["narma2"], "stm_delays": [0, 1],
    "sweep": {"gammas": [0.1], "topologies": ["linear"], "readouts": [1]},
    "esn": {"n_nodes": 3, "variants": [1]}}
# A stored run of one row, narma2 on the chain, with a value per seed.
BASE_MANIFEST = dict(json.loads(ExperimentManifest(
    kind="reservoir", tasks=("narma2",), n_seeds=2,
    config={k: v for k, v in BASE_CONFIG.items()
            if k in cli.RESERVOIR_CONFIG_KEYS}).to_json()),
    metrics={"narma2|linear|per_qubit|0.1": [0.25, 0.5]})

# Sizes at their upper bound that a run would simulate for seconds; only
# a stored manifest, which `report` never simulates, holds them.
SLOW = {"n_qubits": 10, "seeds": 10_000}


def edges(f) -> list:
    """The values of a ``number`` field at and just past each of its
    finite bounds."""
    low, high, above = f.metadata["range"]
    many = isinstance(f.default, tuple)
    if isinstance(f.default[0] if many else f.default, int):
        def past(x, d):
            return x + d
    else:
        def past(x, d):
            return math.nextafter(x, x + d)
    high = BASE_N_QUBITS if isinstance(high, str) else high
    values = [v for bound, d in ((low, -1), (high, 1))
              if math.isfinite(bound) for v in (bound, past(bound, d))]
    if above is not None:
        values += [above, past(above, 1)]
    return [[v] if many else v for v in values]


def values(cls, names, listed=False) -> dict:
    """Each key of ``names`` (a dict of key to field name of ``cls``, or
    the field names themselves) to the values to try for it: the odd ones
    or, as often, the edges of the field's range, each as a list if
    ``listed``."""
    by_name = {f.name: f for f in fields(cls)}
    pairs = names.items() if isinstance(names, dict) else zip(names, names)
    tried = {}
    for key, name in pairs:
        f = by_name[name]
        bounds = edges(f) if "range" in f.metadata else []
        tried[key] = st.sampled_from(ODD_VALUES)
        if bounds:
            tried[key] |= st.sampled_from(
                [[v] if listed else v for v in bounds])
    return tried


CONFIG_VALUES = {
    **values(ReservoirConfig, cli.RESERVOIR_CONFIG_KEYS),
    **values(ExperimentManifest, dict(cli.MANIFEST_KEYS, readout="readout"))}
BLOCK_VALUES = {
    "esn": {**values(EsnConfig, cli.ESN_CONFIG_KEYS),
            **values(EsnConfig, {"variants": "variant"}, listed=True)},
    "sweep": values(ReservoirConfig, {"gammas": "gamma"}, listed=True)}
MANIFEST_VALUES = values(ExperimentManifest, [
    f.name for f in fields(ExperimentManifest)
    if f.name not in ("config", "trajectory")])
STORED_CONFIG_VALUES = values(ReservoirConfig, cli.RESERVOIR_CONFIG_KEYS)


@st.composite
def edited(draw, base: dict, top: dict, inner: str, inner_values: dict,
           slow: dict) -> Obj:
    """``base`` with up to three keys set to values tried for them, at the
    top level (keys of ``top``) or in its ``inner`` object, but no key to
    its value in ``slow``, and perhaps one key repeated. When ``base`` is
    a stored run, each of its per-seed values may be an odd value too."""
    objects = {None: dict(base), inner: dict(base[inner])}
    if "metrics" in base:
        objects[None]["metrics"] = {
            row: [draw(st.sampled_from(ODD_VALUES)) if draw(st.booleans())
                  else v for v in per_seed]
            for row, per_seed in base["metrics"].items()}
    for _ in range(draw(st.integers(0, 3))):
        where = draw(st.sampled_from([None, inner]))
        tried = top if where is None else inner_values
        key = draw(st.sampled_from(sorted(tried)))
        value = draw(tried[key])
        if key not in slow or value != slow[key]:
            objects[where][key] = value
    pairs = {where: list(obj.items()) for where, obj in objects.items()}
    if draw(st.integers(0, 5)) == 0:
        where = draw(st.sampled_from([None, inner]))
        key, _ = draw(st.sampled_from(pairs[where]))
        pairs[where].append((key, draw(st.sampled_from(ODD_VALUES))))
    return Obj((k, Obj(pairs[inner]) if k == inner else v)
               for k, v in pairs[None])


@st.composite
def inputs(draw) -> tuple[str, Obj]:
    """A subcommand and the JSON file it reads."""
    command = draw(st.sampled_from(["run", "sweep", "esn", "report"]))
    if command == "report":
        return command, draw(edited(BASE_MANIFEST, MANIFEST_VALUES, "config",
                                    STORED_CONFIG_VALUES, slow={}))
    block = "sweep" if command == "sweep" else "esn"
    return command, draw(edited(BASE_CONFIG, CONFIG_VALUES, block,
                                BLOCK_VALUES[block], slow=SLOW))


def stored_value(value) -> tuple[str, Obj]:
    """``report`` of ``BASE_MANIFEST`` with ``value`` as the first per-seed
    value of its stored row."""
    [(row, per_seed)] = BASE_MANIFEST["metrics"].items()
    metrics = Obj([(row, [value, *per_seed[1:]])])
    return "report", Obj(dict(BASE_MANIFEST, metrics=metrics).items())


def esn_variants(value) -> tuple[str, Obj]:
    """``esn`` of ``BASE_CONFIG`` with ``value`` as its block's
    ``variants``."""
    block = Obj(dict(BASE_CONFIG["esn"], variants=value).items())
    return "esn", Obj(dict(BASE_CONFIG, esn=block).items())


def each_stored_value(test):
    """``test`` with one explicit example per odd value in the per-seed
    slot, which the generated examples reach only by chance."""
    for value in ODD_VALUES:
        test = example(stored_value(value))(test)
    return test


def each_odd_variants(test):
    """``test`` with one explicit example per odd ``variants`` list of the
    ``esn`` block: each builds one manifest per entry, so each entry's
    check runs apart from the list's."""
    for value in ([[1]], [True], [2], [10**400], [1, 1], []):
        test = example(esn_variants(value))(test)
    return test


@PROPERTY
@given(inputs())
@each_stored_value
@each_odd_variants
def test_cli_exits_0_2_or_3_and_a_rejection_writes_nothing(case):
    command, document = case
    with tempfile.TemporaryDirectory() as tmp, \
            pytest.MonkeyPatch.context() as patch, \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        patch.setattr(workers, "_available_cpus", lambda: 1)
        tmp = Path(tmp)
        out = tmp / "out"
        if command == "report":
            out.mkdir()
            path = out / "manifest_x.json"
            argv = [command, "--out", str(out)]
        else:
            path = tmp / "config.json"
            argv = [command, "--config", str(path), "--out", str(out)]
        path.write_text(to_text(document))
        before = sorted(tmp.rglob("*"))
        code = cli.main(argv)
        assert code in (0, 2, 3), (code, err.getvalue())
        if code:
            errors = [line for line in err.getvalue().splitlines()
                      if line.startswith("error:")]
            assert len(errors) == 1, err.getvalue()
            assert sorted(tmp.rglob("*")) == before
