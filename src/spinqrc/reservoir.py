"""Dissipative evolution of a Heisenberg-coupled spin-qubit array.

One step of the reservoir consumes one input value: the input is injected
as an X rotation on the input qubit, the array evolves under the coupling
Hamiltonian for a fixed interval, the state relaxes toward the all-ground
state with weight ``gamma``, and the per-qubit Z expectations are read out.

    rho' = (1 - gamma) * (U R(s) rho R(s)† U†) + gamma * |0..0><0..0|

The mixing step contracts trace distance by exactly (1 - gamma) per step,
which is what gives the reservoir fading memory.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field
from math import cos, pi, sin
from typing import Sequence

import numpy as np

from .errors import ConfigError, StateInvariantError, ValidationError
from .linalg import kernel_blas, small_operator_threads, unitary_exp
from .qubits import ground_density, z_sign_table

TRACE_TOL = 1e-10
HERM_TOL = 1e-10
EIGEN_TOL = 1e-10

# Cadence of the full Hermiticity/positivity validation inside run_sequence.
# The channel contracts existing deviations by (1-gamma) per step and one
# step of rounding adds at most ~1e-14 to them, so between checkpoints the
# drift stays bounded around 1e-12, two orders below tolerance; the trace
# is still checked every step because it is nearly free.
_CHECK_INTERVAL = 64


class Topology(str, enum.Enum):
    LINEAR = "linear"
    RING = "ring"


class Phase(str, enum.Enum):
    PREP = "prep"
    TRAIN = "train"
    TEST = "test"


@dataclass(frozen=True)
class Bond:
    i: int
    j: int
    strength: float


@dataclass(frozen=True)
class CouplingSet:
    """Bond list for one coupling realization; strengths are normalized so
    the largest equals 1."""

    topology: Topology
    n_qubits: int
    bonds: tuple[Bond, ...]


@dataclass(frozen=True)
class ReservoirConfig:
    n_qubits: int = 6
    topology: Topology = Topology.LINEAR
    gamma: float = 0.1
    theta0: float = 0.5
    n_pre: int = 200
    n_fb: int = 200
    n_test: int = 40
    coupling_seed: int = 0
    input_seed: int = 42
    input_qubit: int = 1

    def __post_init__(self) -> None:
        if self.n_qubits < 2:
            raise ConfigError("a coupled array needs at least 2 qubits")
        if isinstance(self.topology, str) and not isinstance(self.topology, Topology):
            object.__setattr__(self, "topology", Topology(self.topology))
        if self.topology is Topology.RING and self.n_qubits < 3:
            raise ConfigError("a ring needs at least 3 qubits")
        if not 0.0 <= self.gamma <= 1.0:
            raise ConfigError(f"gamma must lie in [0, 1], got {self.gamma}")
        if self.theta0 <= 0.0:
            raise ConfigError(f"theta0 must be positive, got {self.theta0}")
        if min(self.n_pre, self.n_fb, self.n_test) < 1:
            raise ConfigError("all phase lengths must be positive")
        if not 1 <= self.input_qubit <= self.n_qubits:
            raise ConfigError(
                f"input qubit {self.input_qubit} outside [1, {self.n_qubits}]")

    @property
    def dt(self) -> float:
        return pi * self.theta0

    @property
    def total_steps(self) -> int:
        return self.n_pre + self.n_fb + self.n_test

    def phase_of(self, step_index: int) -> Phase:
        if step_index < self.n_pre:
            return Phase.PREP
        if step_index < self.n_pre + self.n_fb:
            return Phase.TRAIN
        return Phase.TEST


@dataclass
class ReservoirState:
    rho: np.ndarray
    step: int = 0


@dataclass(frozen=True)
class StepOutput:
    z_expect: np.ndarray


@dataclass(frozen=True)
class Trajectory:
    """Per-step readout of one reservoir run."""

    config: ReservoirConfig
    inputs: np.ndarray
    z_rows: np.ndarray  # shape (total_steps, n_qubits)
    phases: tuple[Phase, ...] = field(repr=False)

    @property
    def train_slice(self) -> slice:
        c = self.config
        return slice(c.n_pre, c.n_pre + c.n_fb)

    @property
    def test_slice(self) -> slice:
        c = self.config
        return slice(c.n_pre + c.n_fb, c.total_steps)


def topology_bonds(topology: Topology, n_qubits: int) -> list[tuple[int, int]]:
    """Edge list (1-based) for the given arrangement."""
    if n_qubits < 2:
        raise ConfigError("a coupled array needs at least 2 qubits")
    edges = [(i, i + 1) for i in range(1, n_qubits)]
    if Topology(topology) is Topology.RING:
        if n_qubits < 3:
            raise ConfigError("a ring needs at least 3 qubits")
        edges.append((n_qubits, 1))
    return edges


def sample_couplings(topology: Topology, n_qubits: int, seed: int) -> CouplingSet:
    """Draw one bond strength per edge, uniform on [0, 1], then rescale so
    the maximum is exactly 1."""
    topology = Topology(topology)
    edges = topology_bonds(topology, n_qubits)
    rng = np.random.default_rng(seed)
    raw = rng.uniform(0.0, 1.0, len(edges))
    raw /= raw.max()
    bonds = tuple(Bond(i, j, float(s)) for (i, j), s in zip(edges, raw))
    return CouplingSet(topology=topology, n_qubits=n_qubits, bonds=bonds)


def build_hamiltonian(couplings: CouplingSet, n_qubits: int) -> np.ndarray:
    """Sum of J_ij (X_iX_j + Y_iY_j + Z_iZ_j) over the bond list."""
    from .qubits import heisenberg_term

    dim = 2**n_qubits
    h = np.zeros((dim, dim), dtype=complex)
    for bond in couplings.bonds:
        h += bond.strength * heisenberg_term(bond.i, bond.j, n_qubits)
    return h


def evolution_operator(config: ReservoirConfig) -> np.ndarray:
    """Free-evolution unitary exp(-i dt H) for the configured couplings.

    The Hamiltonian does not change between steps, so callers compute this
    once and reuse it for a whole sequence.
    """
    couplings = sample_couplings(config.topology, config.n_qubits,
                                 config.coupling_seed)
    with small_operator_threads(2**config.n_qubits):
        h = build_hamiltonian(couplings, config.n_qubits)
        return unitary_exp(h, config.dt)


def check_density_matrix(rho: np.ndarray) -> None:
    """Raise StateInvariantError unless rho is trace-1, Hermitian, and PSD
    within module tolerances."""
    if abs(rho.trace() - 1.0) > TRACE_TOL:
        raise StateInvariantError(f"trace deviates from 1 by {abs(rho.trace() - 1.0):.2e}")
    if np.linalg.norm(rho - rho.conj().T) > HERM_TOL:
        raise StateInvariantError("state is not Hermitian within tolerance")
    # Cholesky of rho + tol*I succeeds exactly when the smallest eigenvalue
    # exceeds -tol; far cheaper than a full eigendecomposition.
    shifted = np.asfortranarray(rho + EIGEN_TOL * np.eye(rho.shape[0]),
                                dtype=complex)
    if kernel_blas().potrf(shifted)() != 0:
        raise StateInvariantError("state has an eigenvalue below tolerance")


def apply_channel(rho: np.ndarray, propagator: np.ndarray, gamma: float,
                  rho0: np.ndarray) -> np.ndarray:
    """One dissipative step with a pre-composed unitary (rotation folded in)."""
    evolved = propagator @ rho @ propagator.conj().T
    return (1.0 - gamma) * evolved + gamma * rho0


def step(state: ReservoirState, s_k: float, U: np.ndarray, gamma: float,
         rho0: np.ndarray, input_qubit: int = 1) -> tuple[ReservoirState, StepOutput]:
    """Advance the reservoir by one input value.

    ``U`` is the free-evolution unitary; the input rotation is applied
    before it, folded into the propagator by the bit-flip route that
    ``run_sequence`` uses. The state is validated on entry so numerical
    drift surfaces at the step that first sees it.
    """
    rho = state.rho
    dim = rho.shape[0]
    n_qubits = dim.bit_length() - 1
    if 2**n_qubits != dim or U.shape != (dim, dim) or rho0.shape != (dim, dim):
        raise ValidationError("state, U, and rho0 dimensions are inconsistent")
    if not 0.0 <= gamma <= 1.0:
        raise ConfigError(f"gamma must lie in [0, 1], got {gamma}")
    if not 1 <= input_qubit <= n_qubits:
        raise ValidationError(
            f"input qubit {input_qubit} outside [1, {n_qubits}]")
    if not np.isfinite(s_k):
        raise ValidationError("input value must be finite")
    with small_operator_threads(dim):
        check_density_matrix(rho)
        half = 0.5 * pi * s_k
        flipped = U[:, _input_flip(n_qubits, input_qubit)]
        propagator = cos(half) * U + 1j * sin(half) * flipped
        rho_next = apply_channel(rho, propagator, gamma, rho0)
    z = z_sign_table(n_qubits) @ rho_next.diagonal().real
    return ReservoirState(rho=rho_next, step=state.step + 1), StepOutput(z_expect=z)


def _input_flip(n_qubits: int, input_qubit: int) -> np.ndarray:
    """Column order of ``U X_q``: each basis index with the input qubit's bit
    flipped. The input rotation acts on one qubit, so the composed
    propagator is U R(s) = cos(pi s/2) U + i sin(pi s/2) U X_q, two scaled
    adds instead of a matrix product."""
    return np.arange(2**n_qubits) ^ (1 << (n_qubits - input_qubit))


def run_sequence(config: ReservoirConfig, inputs: Sequence[float]) -> Trajectory:
    """Run one full prep/train/test sequence from the all-ground state.

    Row k of the result holds the Z expectations right after input k was
    absorbed (rotation, evolution, and relaxation applied). The trace is
    checked on every state; Hermiticity and positivity are checked every
    ``_CHECK_INTERVAL`` steps and on the final state, which pins every
    intermediate state within tolerance (see the cadence note above).
    Arrays of up to eight qubits evolve at one BLAS thread
    (``linalg.small_operator_threads``); the caller's count is restored.
    """
    inputs = np.asarray(inputs, dtype=float)
    if inputs.ndim != 1 or len(inputs) != config.total_steps:
        raise ConfigError(
            f"need exactly {config.total_steps} inputs, got {inputs.shape}")
    if not np.all(np.isfinite(inputs)):
        raise ConfigError("inputs must be finite")

    with small_operator_threads(2**config.n_qubits):
        z_rows = _evolve(config, inputs)
    phases = tuple(config.phase_of(k) for k in range(len(inputs)))
    return Trajectory(config=config, inputs=inputs, z_rows=z_rows, phases=phases)


def _evolve(config: ReservoirConfig, inputs: np.ndarray) -> np.ndarray:
    """The hot loop of ``run_sequence``: Z expectations after every input."""
    n = config.n_qubits
    dim = 2**n
    U = np.asfortranarray(evolution_operator(config))
    rho0 = ground_density(n)
    gamma_rho0 = np.asfortranarray(config.gamma * rho0)
    keep = 1.0 - config.gamma
    signs = z_sign_table(n)

    u_flip = np.asfortranarray(U[:, _input_flip(n, config.input_qubit)])

    # Hot loop: Fortran-ordered buffers so BLAS/LAPACK take them without
    # copies; the (1-gamma)/(gamma rho0) mixing rides the second product's
    # beta accumulation.
    rho = np.asfortranarray(rho0)
    prop = np.empty_like(rho)
    prop_tmp = np.empty_like(rho)
    work = np.empty_like(rho)
    out = np.empty_like(rho)
    spare = np.empty_like(rho)
    shift = np.asfortranarray(EIGEN_TOL * np.eye(dim))
    z_rows = np.empty((len(inputs), n))
    half = 0.5 * pi

    # The BLAS calls are bound to their buffers once. rho and out swap
    # every step, so each product has one call per step parity: on even
    # steps rho is the first buffer, on odd steps the second.
    blas = kernel_blas()
    propagate = [blas.gemm(prop, buf, work) for buf in (rho, out)]
    mix = [blas.gemm(work, prop, buf, alpha=keep, beta=1.0, conj_b=True)
           for buf in (out, rho)]
    cholesky = blas.potrf(spare, lower=True)

    for k, s in enumerate(inputs):
        np.multiply(U, cos(half * s), out=prop)
        np.multiply(u_flip, 1j * sin(half * s), out=prop_tmp)
        np.add(prop, prop_tmp, out=prop)
        propagate[k & 1]()  # work = prop rho
        np.copyto(out, gamma_rho0)
        mix[k & 1]()  # out = (1-gamma) work prop† + gamma rho0
        rho, out = out, rho
        z_rows[k] = signs @ rho.diagonal().real

        tr_dev = abs(rho.trace() - 1.0)
        if tr_dev > TRACE_TOL:
            raise StateInvariantError(
                f"trace deviates from 1 by {tr_dev:.2e} at step {k}")
        if (k + 1) % _CHECK_INTERVAL == 0 or k + 1 == len(inputs):
            np.conjugate(rho.T, out=spare)
            np.subtract(rho, spare, out=spare)
            if np.linalg.norm(spare) > HERM_TOL:
                raise StateInvariantError(f"state not Hermitian at step {k}")
            np.add(rho, shift, out=spare)
            if cholesky() != 0:
                raise StateInvariantError(
                    f"eigenvalue below tolerance at step {k}")
    return z_rows
