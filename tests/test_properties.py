"""Property tests of the channel kernel over small random configurations:
n = 2..4 qubits, both topologies, any reset rate and drive in [0, 1]."""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from spinqrc.linalg import trace_distance
from spinqrc.qubits import ground_density
from spinqrc.reservoir import (ReservoirConfig, evolution_operator,
                               run_sequence, step)

# Derandomized and without an example database, so that every run checks
# the same examples and writes nothing.
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True,
                    database=None)


@st.composite
def runs(draw):
    """A config and a drive of its length, with 1..3 steps per phase."""
    n_qubits = draw(st.integers(2, 4))
    topology = draw(st.sampled_from(
        ["linear", "ring"] if n_qubits >= 3 else ["linear"]))
    config = ReservoirConfig(
        n_qubits=n_qubits, topology=topology,
        gamma=draw(st.floats(0.0, 1.0)),
        theta0=draw(st.floats(0.05, 1.0)),
        n_pre=draw(st.integers(1, 3)), n_fb=draw(st.integers(1, 3)),
        n_test=draw(st.integers(1, 3)),
        coupling_seed=draw(st.integers(0, 2**16)),
        input_qubit=draw(st.integers(1, n_qubits)))
    drive = draw(st.lists(st.floats(0.0, 1.0), min_size=config.total_steps,
                          max_size=config.total_steps))
    return config, np.array(drive)


def random_density(n_qubits: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    dim = 2**n_qubits
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


@PROPERTY
@given(runs())
def test_run_sequence_agrees_with_repeated_step(run):
    config, drive = run
    # One kernel serves both, so the rows agree bit for bit.
    u = evolution_operator(config)
    rho = ground_density(config.n_qubits)
    rows = []
    for s in drive:
        rho, z = step(rho, s, u, config.gamma, config.input_qubit)
        rows.append(z)
    z_rows = run_sequence(config, drive).z_rows
    assert z_rows.tobytes() == np.array(rows).tobytes()


@PROPERTY
@given(runs(), st.integers(0, 2**16))
def test_trace_distance_contracts_by_one_minus_gamma(run, seed):
    config, drive = run
    u = evolution_operator(config)
    a = random_density(config.n_qubits, seed)
    b = random_density(config.n_qubits, seed + 1)
    d0 = trace_distance(a, b)
    for k, s in enumerate(drive, start=1):
        a, _ = step(a, s, u, config.gamma, config.input_qubit)
        b, _ = step(b, s, u, config.gamma, config.input_qubit)
        expected = (1 - config.gamma) ** k * d0
        assert abs(trace_distance(a, b) - expected) <= 1e-12
