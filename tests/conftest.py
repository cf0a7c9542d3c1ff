import importlib.util
import sys
from pathlib import Path
from types import ModuleType

import numpy as np
import pytest
from hypothesis import settings

from spinqrc import linalg, workers

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


def blas_core() -> str | None:
    """The kernel core of the BLAS the kernel calls, as ``linalg`` reads
    it, such as ``SkylakeX``; None where that library does not say."""
    return linalg.kernel_blas().core


def frozen_under() -> str:
    """An assertion message naming the goldens' BLAS and this one's."""
    return f"frozen under {GOLDEN_PROVENANCE}; running core {blas_core()}"


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
