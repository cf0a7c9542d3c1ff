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
import functools
import numbers
import reprlib
import sys
from dataclasses import dataclass, field, fields
from math import cos, inf, pi, sin
from typing import Sequence

import numpy as np

from . import workers
from .errors import ConfigError, StateInvariantError, ValidationError
from .linalg import kernel_blas, one_blas_thread, splits_exactly, unitary_exp
from .qubits import MAX_QUBITS, ground_density, z_sign_table
from .rng import Stream

TRACE_TOL = 1e-10
HERM_TOL = 1e-10
EIGEN_TOL = 1e-10

# Cadence of the full Hermiticity/positivity validation inside the kernel.
# The channel contracts existing deviations by (1-gamma) per step and one
# step of rounding adds at most ~1e-14 to them, so between checkpoints the
# drift stays bounded around 1e-12, two orders below tolerance; the trace
# is still checked every step because it is nearly free.
_CHECK_INTERVAL = 64

# Helpers (``_evolve``) pay for their fork from six qubits on, where the two
# products are most of a step, once the run's products add up to
# ``_SPLIT_MIN_WORK`` dim**3 units: 256 steps at n = 6, 4 at n = 8, 1 from
# n = 9 on.
_SPLIT_MIN_QUBITS = 6
_SPLIT_MIN_WORK = 2**26


class Topology(str, enum.Enum):
    LINEAR = "linear"
    RING = "ring"


def number(default, low=-inf, high=inf, *, above=None):
    """A dataclass field that holds a number, ``default`` unless given: an
    integer if ``default`` (for a tuple, each entry) is an int, else a
    finite number. It lies in [``low``, ``high``], where ``high`` may name
    an earlier field, and above ``above`` if given."""
    return field(default=default, metadata={"range": (low, high, above)})


def check_ranges(cls: type, values: dict) -> None:
    """ConfigError unless each of ``values`` that names a ``number`` field of
    the dataclass ``cls`` (each entry, for a tuple) has the field's kind and
    lies in its range; a bool has neither kind. A rejection reads like
    ``n_qubits must be an integer in [2, 10], got 11``."""
    for f in fields(cls):
        if "range" not in f.metadata or f.name not in values:
            continue
        low, high, above = f.metadata["range"]
        high = values[high] if isinstance(high, str) else high
        value, many = values[f.name], isinstance(f.default, tuple)
        integer = isinstance(f.default[0] if many else f.default, int)
        span = (f" > {above}" if above is not None
                else f" in [{low}, {high}]" if high != inf
                else f" >= {low}" if low != -inf else "")
        entries = ([(f"{f.name}[{i}]", v) for i, v in enumerate(value)]
                   if many else [(f.name, value)])
        for name, value in entries:
            # abs also fails NaN, infinities and ints too large for a float.
            if (isinstance(value, bool) or not isinstance(
                    value, numbers.Integral if integer else numbers.Real)
                    or not (integer or abs(value) <= sys.float_info.max)
                    or not low <= value <= high
                    or above is not None and value <= above):
                raise ConfigError(
                    f"{name} must be {'an integer' if integer else 'a number'}"
                    f"{span}, got {reprlib.repr(value)}")


@dataclass(frozen=True)
class Schedule:
    """The prep/train/test window lengths; the reservoir and the ESN
    configs inherit them, so both run the same schedule by default."""

    n_pre: int = number(200, 1)
    n_fb: int = number(200, 1)
    n_test: int = number(40, 1)

    def __post_init__(self) -> None:
        check_ranges(type(self), vars(self))  # a subclass's fields too

    @property
    def total_steps(self) -> int:
        return self.n_pre + self.n_fb + self.n_test

    def check_drive(self, inputs: Sequence[float]) -> np.ndarray:
        """``inputs`` as a float array; ConfigError unless it holds one
        value in [0, 1] per step (NaN fails the comparison)."""
        inputs = np.asarray(inputs, dtype=float)
        if inputs.ndim != 1 or len(inputs) != self.total_steps:
            raise ConfigError(
                f"need exactly {self.total_steps} inputs, got {inputs.shape}")
        if not np.all((inputs >= 0.0) & (inputs <= 1.0)):
            raise ConfigError("inputs must lie in [0, 1]")
        return inputs

    @property
    def train_slice(self) -> slice:
        return slice(self.n_pre, self.n_pre + self.n_fb)

    @property
    def test_slice(self) -> slice:
        return slice(self.n_pre + self.n_fb, self.total_steps)

    def phase_of(self, step_index: int) -> str:
        """``"prep"``, ``"train"`` or ``"test"``: the window of the step,
        split where ``train_slice`` and ``test_slice`` start."""
        if step_index < self.train_slice.start:
            return "prep"
        if step_index < self.test_slice.start:
            return "train"
        return "test"


@dataclass(frozen=True)
class Bond:
    i: int
    j: int
    strength: float


@dataclass(frozen=True)
class ReservoirConfig(Schedule):
    n_qubits: int = number(6, 2, MAX_QUBITS)
    topology: Topology = Topology.LINEAR
    gamma: float = number(0.1, 0, 1)
    theta0: float = number(0.5, above=0)
    coupling_seed: int = number(0, 0)
    input_qubit: int = number(1, 1, "n_qubits")

    def __post_init__(self) -> None:
        super().__post_init__()
        if not isinstance(self.topology, Topology):
            try:
                object.__setattr__(self, "topology", Topology(self.topology))
            except ValueError:
                raise ConfigError(
                    f"unknown topology {self.topology!r}; expected one of "
                    f"{', '.join(t.value for t in Topology)}") from None
        topology_bonds(self.topology, self.n_qubits)  # checks the ring rule

    @property
    def dt(self) -> float:
        return pi * self.theta0

    @property
    def coupling_draw(self) -> tuple:
        """The fields that fix the free-evolution unitary U; gamma, the
        drive and the input qubit do not enter it."""
        return (self.topology, self.n_qubits, self.coupling_seed, self.theta0)


@dataclass(frozen=True)
class Trajectory:
    """One reservoir run's per-step readout; its caller holds the config
    and the drive."""

    z_rows: np.ndarray  # shape (total_steps, n_qubits)


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


def sample_couplings(topology: Topology, n_qubits: int,
                     seed: int) -> tuple[Bond, ...]:
    """One coupling realization: a bond per edge, its strength drawn
    uniform on [0, 1], then rescaled so the maximum is exactly 1."""
    edges = topology_bonds(topology, n_qubits)
    raw = np.array(Stream(seed).uniform(1.0, len(edges)))
    raw /= raw.max()
    return tuple(Bond(i, j, float(s)) for (i, j), s in zip(edges, raw))


def build_hamiltonian(bonds: Sequence[Bond], n_qubits: int) -> np.ndarray:
    """Sum of J_ij (X_iX_j + Y_iY_j + Z_iZ_j) over the bond list.

    Assembled from bit operations on the basis index, bond by bond: ZZ puts
    +J on the diagonal where qubits i and j agree and -J where they differ,
    and XX + YY maps each state whose qubits i and j differ to its swap
    with amplitude 2J. Every entry receives the same sums in the same order
    as a sum of Pauli Kronecker chains, so the two agree bitwise.
    """
    check_ranges(ReservoirConfig, {"n_qubits": n_qubits})
    dim = 2**n_qubits
    idx = np.arange(dim)
    h = np.zeros((dim, dim), dtype=complex)
    for bond in bonds:
        if not (1 <= bond.i <= n_qubits and 1 <= bond.j <= n_qubits
                and bond.i != bond.j):
            raise ValidationError(
                f"bond ({bond.i}, {bond.j}) needs two distinct qubits of "
                f"[1, {n_qubits}]")
        mask_i, mask_j = 1 << (n_qubits - bond.i), 1 << (n_qubits - bond.j)
        anti = ((idx & mask_i) != 0) != ((idx & mask_j) != 0)
        h[idx, idx] += np.where(anti, -bond.strength, bond.strength)
        h[idx[anti] ^ (mask_i | mask_j), idx[anti]] += 2.0 * bond.strength
    return h


def evolution_operator(config: ReservoirConfig) -> np.ndarray:
    """Free-evolution unitary exp(-i dt H) for the configured couplings.

    The Hamiltonian does not change between steps, so callers compute this
    once and reuse it for a whole sequence.
    """
    bonds = sample_couplings(config.topology, config.n_qubits,
                             config.coupling_seed)
    h = build_hamiltonian(bonds, config.n_qubits)
    try:
        return unitary_exp(h, config.dt)
    except ValidationError as exc:  # h is finite and Hermitian: dt overflowed
        raise ConfigError(f"theta0 {config.theta0!r} is too large: {exc}"
                          ) from None


def _check_state(rho: np.ndarray, spare: np.ndarray,
                 full: bool = True) -> None:
    """The kernel's invariant tests: the trace, then (``full``) Hermiticity
    and positivity. ``spare`` is a Fortran-ordered scratch matrix of rho's
    size. Each test is written so that a NaN fails it."""
    tr_dev = abs(rho.trace() - 1.0)
    if not tr_dev <= TRACE_TOL:
        raise StateInvariantError(f"trace deviates from 1 by {tr_dev:.2e}")
    if not full:
        return
    np.copyto(spare, rho.T)  # a strided copy, then a contiguous conjugate,
    np.conjugate(spare, out=spare)  # is faster than a strided conjugate
    with np.errstate(invalid="ignore"):  # Inf - Inf is NaN, which fails below
        np.subtract(rho, spare, out=spare)
    if not np.linalg.norm(spare) <= HERM_TOL:
        raise StateInvariantError("state is not Hermitian within tolerance")
    # Cholesky of rho + tol*I succeeds exactly when the smallest eigenvalue
    # exceeds -tol; far cheaper than a full eigendecomposition.
    np.copyto(spare, rho)
    diagonal = spare.reshape(-1, order="F")[::spare.shape[0] + 1]
    diagonal += EIGEN_TOL
    try:
        np.linalg.cholesky(spare)
    except np.linalg.LinAlgError:
        raise StateInvariantError(
            "state has an eigenvalue below tolerance") from None


def step(rho: np.ndarray, s_k: float, U: np.ndarray, gamma: float,
         input_qubit: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Advance the density matrix ``rho`` by one input value; return the
    next density matrix and its per-qubit Z expectations.

    ``U`` is the free-evolution unitary; the input rotation is applied
    before it. This is one step of the kernel ``run_sequence`` runs, so
    the state is validated on entry (``before step 0``) and on exit
    (``at step 0``).
    """
    dim = rho.shape[0]
    n_qubits = dim.bit_length() - 1
    if 2**n_qubits != dim or rho.shape != (dim, dim) or U.shape != (dim, dim):
        raise ValidationError("rho and U dimensions are inconsistent")
    check_ranges(ReservoirConfig, {"gamma": gamma})
    if not 1 <= input_qubit <= n_qubits:
        raise ValidationError(
            f"input qubit {input_qubit} outside [1, {n_qubits}]")
    if not 0.0 <= s_k <= 1.0:
        raise ValidationError(f"input value must lie in [0, 1], got {s_k}")
    z_rows, rho = _evolve(U, gamma, rho, np.array([s_k], dtype=float),
                          input_qubit)
    return rho, z_rows[0]


def run_sequence(config: ReservoirConfig, inputs: Sequence[float]) -> Trajectory:
    """Run one full prep/train/test sequence from the all-ground state.

    Row k of the result holds the Z expectations right after input k was
    absorbed (rotation, evolution, and relaxation applied). The states are
    checked at ``_evolve``'s checkpoints, which pin every intermediate
    state within tolerance (see the cadence note above).
    """
    inputs = config.check_drive(inputs)
    z_rows, _ = _evolve(_draw_unitary(config.coupling_draw), config.gamma,
                        ground_density(config.n_qubits), inputs,
                        config.input_qubit)
    return Trajectory(z_rows)


@functools.lru_cache(maxsize=1)
def _draw_unitary(draw: tuple) -> np.ndarray:
    """U of one ``ReservoirConfig.coupling_draw``, Fortran-ordered and
    read-only. The last draw's U is kept, so trajectories of one draw run
    back to back (as ``run_experiment`` groups them) build it once."""
    topology, n_qubits, coupling_seed, theta0 = draw
    u = np.asfortranarray(evolution_operator(ReservoirConfig(
        topology=topology, n_qubits=n_qubits, coupling_seed=coupling_seed,
        theta0=theta0)))
    u.flags.writeable = False
    return u


def _evolve(U: np.ndarray, gamma: float, rho: np.ndarray, inputs: np.ndarray,
            input_qubit: int) -> tuple[np.ndarray, np.ndarray]:
    """The channel kernel of ``step`` and ``run_sequence``: Z expectations
    after every input, and the final state (Fortran-ordered), from the
    start state ``rho``.

    The start state is checked in full; after it the trace is checked on
    every state, Hermiticity and positivity every ``_CHECK_INTERVAL`` steps
    and on the final state. A failure names the step: ``before step 0``
    for the start state and ``at step k`` for the state after input k.
    Every array evolves at one BLAS thread (``linalg.one_blas_thread``).

    A long run from ``_SPLIT_MIN_QUBITS`` qubits on also spends a CPU
    that ``workers.idle_cpus`` counts: a ``workers.Crew`` of this process
    and one forked helper splits each step's two products by output
    columns; the readout and the checks stay in this process. The helper
    is forked only where ``linalg.splits_exactly(dim)`` holds, the rule
    under which the split changes no bit; elsewhere the trajectory runs
    alone (README, Parallel simulation).
    """
    n = U.shape[0].bit_length() - 1
    dim = 2**n
    blas = kernel_blas()
    U = np.asfortranarray(U, dtype=complex)
    # U X_q, U's columns with the input qubit's bit flipped: the rotation
    # acts on one qubit, so the propagator U R(s) = cos(pi s/2) U +
    # i sin(pi s/2) U X_q takes two scaled adds, not a matrix product.
    u_flip = np.asfortranarray(U[:, np.arange(dim) ^ (1 << (n - input_qubit))])
    gamma_rho0 = np.zeros_like(U)  # the reset target, rho0 = |0..0><0..0|
    gamma_rho0[0, 0] = gamma
    keep = 1.0 - gamma
    signs = z_sign_table(n)
    crew = workers.Crew(n >= _SPLIT_MIN_QUBITS and workers.idle_cpus() > 0
                        and len(inputs) * dim**3 >= _SPLIT_MIN_WORK
                        and splits_exactly(dim))

    # Each step computes work = prop rho, then the next rho =
    # (1-gamma) work prop† + gamma rho0, the mixing riding the second
    # product's beta accumulation onto a copy of gamma rho0. Each process
    # computes one column block of both: its block of work needs only its
    # own block of rho, its block of the next rho needs all of work, so
    # one sync per step (after the first product) suffices if each process
    # composes the whole propagator itself and work and rho cycle through
    # ``crew.size`` shared buffers each, step k using buffer k % crew.size:
    # with a helper, a process may write the next step's blocks while the
    # other still reads this step's, and rank 0 reads a state out while the
    # helper writes the next. Alone, one buffer of each serves every step,
    # as rho is free once work is. The buffers are Fortran-ordered so that
    # BLAS takes them without copies.
    def shared_matrix() -> np.ndarray:
        return np.frombuffer(crew.memory(U.nbytes), dtype=complex).reshape(
            (dim, dim), order="F")

    rhos = [shared_matrix() for _ in range(crew.size)]
    works = [shared_matrix() for _ in range(crew.size)]
    np.copyto(rhos[0], rho)
    z_rows = np.empty((len(inputs), n))
    half = 0.5 * pi
    input_bits = memoryview(np.ascontiguousarray(inputs).view(np.uint64))

    def steps() -> None:
        """The loop both processes run, each on its column block; rank 0
        also reads every state out and checks it."""
        size = crew.size  # 1 if the helper could not be forked
        main = crew.rank == 0
        block = slice(0, dim // size) if main else slice(dim // size, dim)
        rho_blocks = [rho[:, block] for rho in rhos]
        reset = gamma_rho0[:, block]
        spare = np.empty_like(U)
        # The composed propagators of the last two distinct input values
        # stay in ``props``, keyed on the values' float64 bits, so a binary
        # drive composes two per trajectory; a new value overwrites the
        # slot the last step did not use. A slot's BLAS calls, one pair per
        # buffer, are bound to the buffers when it is first composed.
        props = (np.empty_like(U), np.empty_like(U))
        prop_keys = [None, None]
        products = [None, None]
        slot = 1
        last = len(inputs)
        k = 0
        try:
            if main:
                _check_state(rhos[0], spare)
            # Step k absorbs input k; its pass also reads out the state
            # after input k - 1, and a last pass reads out the final state.
            for k in range(last + 1):
                if k < last:
                    key = input_bits[k]
                    if key == prop_keys[0]:
                        slot = 0
                    elif key == prop_keys[1]:
                        slot = 1
                    else:
                        slot ^= 1
                        prop, s = props[slot], inputs[k]
                        np.multiply(U, cos(half * s), out=prop)
                        np.multiply(u_flip, 1j * sin(half * s), out=spare)
                        np.add(prop, spare, out=prop)
                        prop_keys[slot] = key
                        if products[slot] is None:
                            products[slot] = [
                                (blas.gemm(prop, rhos[p], works[p], cols=block),
                                 blas.gemm(works[p], prop,
                                           rhos[(p + 1) % size], alpha=keep,
                                           beta=1.0, conj_b=True, cols=block))
                                for p in range(size)]
                    propagate, mix = products[slot][k % size]
                    propagate()  # work[:, b] = prop rho[:, b]
                if size > 1:
                    crew.sync()  # every block of work and of rho is written
                if k and main:  # the state after input k - 1
                    rho = rhos[k % size]
                    z_rows[k - 1] = signs @ rho.diagonal().real
                    _check_state(rho, spare, full=k % _CHECK_INTERVAL == 0
                                 or k == last)
                if k < last:
                    np.copyto(rho_blocks[(k + 1) % size], reset)
                    mix()  # rho'[:, b] = (1-gamma) work prop[b, :]† + gamma rho0[:, b]
        except StateInvariantError as exc:
            where = "before step 0" if k == 0 else f"at step {k - 1}"
            raise StateInvariantError(f"{exc} {where}") from None

    with one_blas_thread():
        crew.run(steps)
    return z_rows, rhos[len(inputs) % crew.size]
