"""Property tests of the channel kernel over small random configurations.

``test_run_sequence_agrees_with_repeated_step`` is the suite's one check of
the channel rho' = (1 - gamma) U R(s) rho R(s)† U† + gamma |0..0><0..0|
against an independent implementation, ``perfbench/reference.py``. That
reference draws its own bonds from ``default_rng``, builds its own
Hamiltonian from bit operations, takes its own ``eigh``, embeds the input
rotation by a Kronecker chain and steps with plain dense products, so it
shares no step with the kernel. Its reach: n = 2..4 qubits, both
topologies, any gamma in [0, 1] (both endpoints among the examples), theta0
in [0.05, 1], any input qubit, and drives of 20..60 steps, some over three
values so that the kernel's two cached propagators are reused and evicted.
It compares the readout rows, not the state, to 1e-12; an error in the
state reaches later rows through U. The one error the rows cannot show,
U replaced by its complex conjugate (time run backwards), is caught by
holding U itself to the reference's Hamiltonian. It also holds ``step``,
run input by input, to ``run_sequence`` bit for bit: both run one kernel.

The contraction test checks the (1 - gamma)-per-step law of the trace
distance over the same draws. The two tests take about 2 s together.
"""
import numpy as np
from conftest import load_module, random_density
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinqrc.linalg import trace_distance
from spinqrc.qubits import ground_density
from spinqrc.reservoir import (ReservoirConfig, evolution_operator,
                               run_sequence, step)

REFERENCE = load_module("perfbench/reference.py")
# The benchmark's tolerance for the same comparison (perfbench/run.py).
Z_TOL = 1e-12
# Three drive values: two fill the kernel's propagator cache, the third
# evicts one of them.
THREE_VALUES = (0.0, 1.0, 0.35)


def config_of(n_qubits, topology, gamma, theta0, coupling_seed, input_qubit,
              steps):
    return ReservoirConfig(
        n_qubits=n_qubits, topology=topology, gamma=gamma, theta0=theta0,
        coupling_seed=coupling_seed, input_qubit=input_qubit,
        n_pre=steps - 2, n_fb=1, n_test=1)


@st.composite
def runs(draw):
    """A config and a drive of its length, 20..60 steps, uniform in [0, 1]
    or over ``THREE_VALUES``."""
    n_qubits = draw(st.integers(2, 4))
    steps = draw(st.integers(20, 60))
    config = config_of(
        n_qubits, draw(st.sampled_from(
            ["linear", "ring"] if n_qubits >= 3 else ["linear"])),
        draw(st.floats(0.0, 1.0)), draw(st.floats(0.05, 1.0)),
        draw(st.integers(0, 2**16)), draw(st.integers(1, n_qubits)), steps)
    drive = draw(st.one_of(
        st.lists(st.floats(0.0, 1.0), min_size=steps, max_size=steps),
        st.lists(st.sampled_from(THREE_VALUES), min_size=steps,
                 max_size=steps)))
    return config, np.array(drive)


# gamma = 0 (no reset) and gamma = 1 (a full reset every step), checked on
# every run whatever the draws give.
ENDPOINTS = (
    (config_of(3, "ring", 0.0, 0.5, 7, 2, 30),
     np.random.default_rng(1).choice(THREE_VALUES, 30)),
    (config_of(4, "linear", 1.0, 0.3, 11, 4, 20),
     np.random.default_rng(2).uniform(0.0, 1.0, 20)),
)


@settings(max_examples=60)
@given(run=runs())
@example(run=ENDPOINTS[0])
@example(run=ENDPOINTS[1])
def test_run_sequence_agrees_with_repeated_step(run):
    config, drive = run
    z_rows = run_sequence(config, drive).z_rows
    expected = REFERENCE.z_rows(
        config.n_qubits, config.topology.value, config.gamma,
        config.coupling_seed, drive, theta0=config.theta0,
        input_qubit=config.input_qubit)
    assert np.abs(z_rows - expected).max() <= Z_TOL
    # The rows cannot tell U from its complex conjugate: H is real, and the
    # global Z parity, which commutes with H, maps R(s) to R(-s). So U is
    # held to exp(-i pi theta0 H) of the reference's own Hamiltonian.
    u = evolution_operator(config)
    bonds = REFERENCE.bonds(config.topology.value, config.n_qubits,
                            config.coupling_seed)
    w, v = np.linalg.eigh(REFERENCE.hamiltonian(config.n_qubits, bonds))
    u_ref = (v * np.exp(-1j * np.pi * config.theta0 * w)) @ v.conj().T
    assert np.abs(u - u_ref).max() <= Z_TOL
    # One kernel serves both, so the rows agree bit for bit.
    rho = ground_density(config.n_qubits)
    rows = []
    for s in drive:
        rho, z = step(rho, s, u, config.gamma, config.input_qubit)
        rows.append(z)
    assert np.array(rows).tobytes() == z_rows.tobytes()


@settings(max_examples=60)
@given(run=runs(), seed=st.integers(0, 2**16))
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
