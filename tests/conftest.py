import pytest

from spinqrc import workers

# Most simulation worker processes any test may start, whatever the host's
# CPU count; a test that needs a particular count patches the same function.
MAX_TEST_WORKERS = 2


@pytest.fixture(autouse=True, scope="session")
def cap_simulation_workers():
    cpus = workers._available_cpus()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(workers, "_available_cpus",
                      lambda: min(cpus, MAX_TEST_WORKERS))
        yield
