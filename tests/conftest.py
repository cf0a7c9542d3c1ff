import pytest

from spinqrc import linalg, workers

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
