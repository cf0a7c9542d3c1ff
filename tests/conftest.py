import importlib.util
import json
import os
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path
from types import ModuleType

import numpy as np
import pytest
from hypothesis import settings

from spinqrc import linalg, workers
from spinqrc.cli import main

ROOT = Path(__file__).resolve().parents[1]

# Every property test checks the same examples on every run, writes no
# example database and has no deadline; each sets only its max_examples.
settings.register_profile("spinqrc", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("spinqrc")

# Most simulation worker processes any test may start, whatever the host's
# CPU count; a test that needs a particular count patches the same function.
MAX_TEST_WORKERS = 2

# The BLAS under which the goldens (perfbench/goldens and
# dissipation_curve.csv) were frozen. Their bytes hold on its kernel;
# other OpenBLAS kernels round differently (README, Tests).
GOLDEN_PROVENANCE = "OpenBLAS 0.3.31.188.0, core SkylakeX, numpy 2.4.6"

GOLDENS = ROOT / "perfbench" / "goldens"
DISSIPATION_CONFIG = ROOT / "tests" / "dissipation_curve.json"
# The jobs whose metrics.csv is frozen: each job's arguments and its golden,
# read only and never rewritten by tests. The sweep and the ESN comparison
# are perfbench's jobs at ensemble seed 10. The dissipation curve runs every
# gamma from 0 to 1 over both topologies, both readouts and
# stm/narma2/narma5, one seed.
FROZEN_JOBS = {
    "sweep": (["sweep", "--seeds", "1", "--seed", "10"],
              GOLDENS / "sweep_seed10.csv"),
    "esn": (["esn", "--seeds", "40", "--seed", "10"],
            GOLDENS / "esn_seed10.csv"),
    "dissipation_curve": (["sweep", "--config", str(DISSIPATION_CONFIG)],
                          DISSIPATION_CONFIG.with_suffix(".csv"))}


def blas_core() -> str | None:
    """The kernel core of the BLAS the kernel calls, as ``linalg`` reads
    it, such as ``SkylakeX``; None where that library does not say."""
    return linalg.kernel_blas().core


def frozen_under() -> str:
    """An assertion message naming the goldens' BLAS and this one's."""
    return f"frozen under {GOLDEN_PROVENANCE}; running core {blas_core()}"


def child_env() -> dict[str, str]:
    """``os.environ`` with the checkout's ``src`` first on ``PYTHONPATH``,
    for a child Python process that imports spinqrc."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH")))))


def record_forks(patch: pytest.MonkeyPatch) -> list[int]:
    """Patch ``os.fork``, through ``patch``, to record the pid of each
    child it forks; returns the list it records into."""
    pids = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    patch.setattr(os, "fork", recording_fork)
    return pids


@pytest.fixture
def forks(monkeypatch):
    """Pids of the processes forked during the test."""
    return record_forks(monkeypatch)


def cli_in(root: Path):
    """The command line driven in the directory ``root``:
    ``run(argv, config=None, out="out")`` calls ``main`` on ``argv`` with
    ``--out`` set to the directory ``out`` under ``root`` and, given
    ``config``, ``--config`` set to ``root/config.json`` holding it (bytes
    as they are, anything else as JSON). It returns the exit code and the
    output directory."""
    def run(argv, config=None, out="out"):
        if config is not None:
            path = root / "config.json"
            path.write_bytes(config if isinstance(config, bytes)
                             else json.dumps(config).encode())
            argv = [*argv, "--config", str(path)]
        out = root / out
        return main([*argv, "--out", str(out)]), out
    return run


@pytest.fixture
def run_cli(tmp_path):
    """The command line driven in the test's ``tmp_path`` (``cli_in``)."""
    return cli_in(tmp_path)


def reaped(pid: int) -> bool:
    """Whether the child process ``pid`` has been waited for."""
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


@dataclass(frozen=True)
class FrozenRun:
    """What one frozen job did at one worker process and at two, each
    field keyed by that count, and what ``report`` rebuilt after."""
    files: dict[int, dict[str, bytes]]  # every file written, by name
    forks: dict[int, list[int]]  # pids forked during the run
    unreaped: dict[int, list[int]]  # of those, any not waited for after it
    warned: dict[int, list[warnings.WarningMessage]]
    report: bytes  # metrics.csv rebuilt from the two-worker manifests


def run_at_one_and_two_workers(argv: list[str], tmp: Path) -> FrozenRun:
    files, forks, unreaped, warned = {}, {}, {}, {}
    run = cli_in(tmp)
    for count in (1, 2):
        with pytest.MonkeyPatch.context() as patch, \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", UserWarning)
            patch.setattr(workers, "_available_cpus", lambda: count)
            forks[count] = record_forks(patch)
            code, out = run(argv, out=str(count))
            assert code == 0
        files[count] = {p.name: p.read_bytes() for p in out.iterdir()}
        unreaped[count] = [pid for pid in forks[count] if not reaped(pid)]
        warned[count] = caught
    (out / "metrics.csv").unlink()
    assert run(["report"], out="2") == (0, out)
    return FrozenRun(files, forks, unreaped, warned,
                     (out / "metrics.csv").read_bytes())


@pytest.fixture(scope="session")
def frozen_run(tmp_path_factory):
    """The ``FrozenRun`` of a ``FROZEN_JOBS`` argv. Each job runs once per
    session, when a test first asks for it, so every test of a job reads
    the same two runs."""
    runs = {}

    def run(argv):
        key = tuple(argv)
        if key not in runs:
            runs[key] = run_at_one_and_two_workers(
                argv, tmp_path_factory.mktemp("frozen"))
        return runs[key]
    return run


@pytest.fixture(autouse=True, scope="session")
def cap_simulation_workers():
    cpus = workers._available_cpus()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(workers, "_available_cpus",
                      lambda: min(cpus, MAX_TEST_WORKERS))
        yield


@pytest.fixture
def caller_threads():
    """The (get, set) thread-count pair of the library the kernel calls,
    with the caller's count restored after the test; skips the test where
    that library exposes no thread controls."""
    threads = linalg.kernel_blas().threads
    if threads is None:
        pytest.skip("no bundled OpenBLAS exposes its thread controls")
    saved = threads[0]()
    yield threads
    threads[1](saved)


def load_module(path: str) -> ModuleType:
    """The Python file at ``path``, relative to the checkout root (such as
    ``perfbench/reference.py``), as a fresh module, with no bytecode
    written beside it."""
    spec = importlib.util.spec_from_file_location(Path(path).stem, ROOT / path)
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def random_density(n_qubits: int, seed: int) -> np.ndarray:
    """A full-rank random state of ``n_qubits``, seeded."""
    rng = np.random.default_rng(seed)
    dim = 2**n_qubits
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real
