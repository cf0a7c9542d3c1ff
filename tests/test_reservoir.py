import ctypes
import importlib

import numpy as np
import pytest

from spinqrc import linalg, reservoir
from spinqrc.cli import EXIT_NUMERICAL, exit_code_for
from spinqrc.errors import ConfigError, StateInvariantError, ValidationError
from spinqrc.esn import EsnConfig, run_esn
from spinqrc.linalg import BLAS_LIBRARIES, load_blas, one_blas_thread
from spinqrc.qubits import ground_density
from spinqrc.reservoir import (Bond, ReservoirConfig, Topology,
                               build_hamiltonian, evolution_operator,
                               run_sequence, sample_couplings, step,
                               topology_bonds)


def small_config(**kw):
    defaults = dict(n_qubits=4, n_pre=10, n_fb=20, n_test=10)
    defaults.update(kw)
    return ReservoirConfig(**defaults)


class TestConfig:
    def test_defaults(self):
        cfg = ReservoirConfig()
        assert cfg.n_qubits == 6
        assert cfg.gamma == 0.1
        assert cfg.dt == pytest.approx(np.pi * 0.5)
        assert cfg.total_steps == 440

    def test_phase_boundaries(self):
        cfg = small_config()
        assert cfg.phase_of(0) == "prep"
        assert cfg.phase_of(9) == "prep"
        assert cfg.phase_of(10) == "train"
        assert cfg.phase_of(29) == "train"
        assert cfg.phase_of(30) == "test"

    def test_topology_coercion_from_string(self):
        cfg = small_config(topology="ring")
        assert cfg.topology is Topology.RING

    @pytest.mark.parametrize("kw", [
        dict(n_qubits=1),
        dict(gamma=-0.1),
        dict(gamma=1.2),
        dict(theta0=0.0),
        dict(n_pre=0),
        dict(input_qubit=9),
        dict(n_qubits="4"),
        dict(n_qubits=True),
        dict(topology="rign"),
        dict(gamma=float("nan")),
        dict(theta0="0.5"),
        dict(coupling_seed=-1),
        dict(theta0=True),
        dict(theta0=float("nan")),
        dict(gamma=10**400),
    ])
    def test_rejects_bad_values(self, kw):
        with pytest.raises(ConfigError):
            small_config(**kw)

    @pytest.mark.parametrize("gamma", [0, 1, 0.0, 1.0])
    def test_accepts_gamma_at_its_bounds(self, gamma):
        assert small_config(gamma=gamma).gamma == gamma

    def test_ring_needs_three_sites(self):
        with pytest.raises(ConfigError):
            ReservoirConfig(n_qubits=2, topology="ring",
                            n_pre=1, n_fb=1, n_test=1)


class TestCouplings:
    def test_linear_bond_list(self):
        assert topology_bonds(Topology.LINEAR, 6) == [
            (1, 2), (2, 3), (3, 4), (4, 5), (5, 6)]

    def test_ring_adds_closing_bond(self):
        bonds = topology_bonds(Topology.RING, 6)
        assert len(bonds) == 6
        assert bonds[-1] == (6, 1)

    def test_sample_is_deterministic_and_normalized(self):
        a = sample_couplings(Topology.LINEAR, 6, seed=3)
        b = sample_couplings(Topology.LINEAR, 6, seed=3)
        strengths = [bond.strength for bond in a]
        assert strengths == [bond.strength for bond in b]
        assert max(strengths) == pytest.approx(1.0)
        assert all(0 <= s <= 1 for s in strengths)

    def test_different_seeds_differ(self):
        a = sample_couplings(Topology.LINEAR, 6, seed=0)
        b = sample_couplings(Topology.LINEAR, 6, seed=1)
        assert [x.strength for x in a] != [x.strength for x in b]

    @pytest.mark.parametrize("topology, n_qubits, message", [
        ("linear", 1, "a coupled array needs at least 2 qubits"),
        ("ring", 2, "a ring needs at least 3 qubits")])
    def test_rejects_too_few_qubits(self, topology, n_qubits, message):
        with pytest.raises(ConfigError, match=message):
            topology_bonds(Topology(topology), n_qubits)

    def test_single_bond_chain_has_unit_coupling(self):
        # normalization forces the lone bond of a 2-site chain to 1
        bonds = sample_couplings(Topology.LINEAR, 2, seed=12345)
        assert bonds[0].strength == pytest.approx(1.0)


PAULIS = (np.array([[0, 1], [1, 0]], dtype=complex),
          np.array([[0, -1j], [1j, 0]], dtype=complex),
          np.array([[1, 0], [0, -1]], dtype=complex))


def kron_chain_hamiltonian(bonds, n_qubits):
    """sum_bonds J (X_iX_j + Y_iY_j + Z_iZ_j), each Pauli pair embedded by
    a Kronecker chain of identities."""
    def embed(op, i):
        return np.kron(np.kron(np.eye(2**(i - 1), dtype=complex), op),
                       np.eye(2**(n_qubits - i), dtype=complex))

    h = np.zeros((2**n_qubits, 2**n_qubits), dtype=complex)
    for bond in bonds:
        term = np.zeros_like(h)
        for op in PAULIS:
            term += embed(op, bond.i) @ embed(op, bond.j)
        h += bond.strength * term
    return h


class TestHamiltonian:
    @pytest.mark.parametrize("topology", ["linear", "ring"])
    @pytest.mark.parametrize("n_qubits", range(3, 9))
    def test_bitwise_equal_to_kronecker_chains(self, topology, n_qubits):
        for seed in range(10):
            bonds = sample_couplings(topology, n_qubits, seed)
            h = build_hamiltonian(bonds, n_qubits)
            expected = kron_chain_hamiltonian(bonds, n_qubits)
            assert h.tobytes() == expected.tobytes()

    def test_rejects_qubit_outside_array(self):
        with pytest.raises(ValidationError):
            build_hamiltonian((Bond(1, 4, 1.0),), 3)

    @pytest.mark.parametrize("n_qubits", [1, 11])
    def test_rejects_qubit_count_outside_range(self, n_qubits):
        with pytest.raises(ConfigError, match=r"n_qubits must be an integer "
                           rf"in \[2, 10\], got {n_qubits}$"):
            build_hamiltonian((Bond(1, 2, 1.0),), n_qubits)


class TestEvolutionOperator:
    def test_unitarity(self):
        for topology in ("linear", "ring"):
            u = evolution_operator(small_config(topology=topology))
            dim = u.shape[0]
            err = np.linalg.norm(u.conj().T @ u - np.eye(dim))
            assert err < 1e-12

    def test_topologies_differ(self):
        u_lin = evolution_operator(small_config(topology="linear"))
        u_ring = evolution_operator(small_config(topology="ring"))
        assert not np.allclose(u_lin, u_ring)


def nonfinite_states() -> dict[str, np.ndarray]:
    """4x4 states holding NaN or Inf entries: every comparison with NaN is
    False and zpotrf reports success on NaN, so each invariant test must be
    written to fail on them."""
    rho = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    states = {"all_nan": np.full((4, 4), np.nan, dtype=complex)}
    states["nan_diagonal"] = rho.copy()
    states["nan_diagonal"][2, 2] = np.nan
    states["nan_off_diagonal"] = rho.copy()
    states["nan_off_diagonal"][0, 3] = np.nan
    states["inf_off_diagonal_pair"] = rho.copy()
    states["inf_off_diagonal_pair"][1, 2] = np.inf
    states["inf_off_diagonal_pair"][2, 1] = np.inf
    return states


NONFINITE = nonfinite_states()


def check_start_state(rho):
    """Run ``step``'s full check of its start state on ``rho``: one step with
    no input, no evolution and no reset, which leaves a valid state as it
    is."""
    step(rho, 0.0, np.eye(rho.shape[0], dtype=complex), 0.0)


class TestCheckDensityMatrix:
    """The trace, Hermiticity and positivity check that ``step`` runs on its
    start state; a failure names the step it comes before."""

    def test_accepts_ground_state(self):
        check_start_state(ground_density(3))

    def test_rejects_wrong_trace(self):
        with pytest.raises(StateInvariantError,
                           match="trace deviates .* before step 0$"):
            check_start_state(2.0 * ground_density(2))

    def test_rejects_nonhermitian(self):
        rho = ground_density(2).astype(complex)
        rho[0, 1] = 1e-6
        with pytest.raises(StateInvariantError,
                           match="not Hermitian .* before step 0$"):
            check_start_state(rho)

    def test_rejects_negative_eigenvalue(self):
        rho = np.diag([1.1, -0.1, 0.0, 0.0]).astype(complex)
        with pytest.raises(StateInvariantError,
                           match="eigenvalue below tolerance before step 0$"):
            check_start_state(rho)

    def test_tolerates_tiny_negative_eigenvalue(self):
        rho = np.diag([1.0, -1e-12, 1e-12, 0.0]).astype(complex)
        check_start_state(rho)

    @pytest.mark.parametrize("smallest, valid", [(-2e-10, False),
                                                 (-0.5e-10, True)])
    def test_positivity_boundary_is_minus_eigen_tol(self, smallest, valid):
        # Positivity means rho + EIGEN_TOL * I is positive definite, so the
        # smallest eigenvalue may reach -EIGEN_TOL; the eigenbasis is
        # rotated so that the Cholesky factor sees off-diagonal entries.
        q = np.kron([[1, 1], [1, -1]], [[1, 1], [1, -1]]) / 2.0
        rho = (q @ np.diag([1.0 - smallest, smallest, 0.0, 0.0]) @ q.T
               ).astype(complex)
        if valid:
            check_start_state(rho)
        else:
            with pytest.raises(StateInvariantError,
                               match="eigenvalue below tolerance"):
                check_start_state(rho)

    @pytest.mark.filterwarnings("error")  # and numpy warns nothing first
    @pytest.mark.parametrize("name", NONFINITE)
    def test_rejects_nonfinite_state(self, name):
        with pytest.raises(StateInvariantError, match="before step 0$"):
            check_start_state(NONFINITE[name])


class TestStep:
    def test_full_reset_returns_ground(self):
        cfg = small_config()
        u = evolution_operator(cfg)
        rho0 = ground_density(cfg.n_qubits)
        new, z = step(rho0, 0.73, u, gamma=1.0)
        assert np.allclose(new, rho0, atol=1e-12)
        assert np.allclose(z, 1.0)

    def test_identity_evolution_is_noop(self):
        rho = np.diag([0.5, 0.25, 0.25, 0.0]).astype(complex)
        new, _ = step(rho, 0.0, np.eye(4, dtype=complex), gamma=0.0)
        assert np.allclose(new, rho, atol=1e-14)

    def test_single_qubit_flip(self):
        _, z = step(ground_density(1), 1.0, np.eye(2, dtype=complex),
                    gamma=0.0)
        assert z[0] == pytest.approx(-1.0)

    def test_rejects_invalid_entry_state(self):
        bad = np.eye(4, dtype=complex)  # trace 4
        with pytest.raises(StateInvariantError):
            step(bad, 0.0, np.eye(4, dtype=complex), 0.1)

    @pytest.mark.filterwarnings("error")  # and numpy warns nothing first
    @pytest.mark.parametrize("name", NONFINITE)
    def test_rejects_nonfinite_entry_state(self, name):
        with pytest.raises(StateInvariantError) as raised:
            step(NONFINITE[name], 0.3, np.eye(4, dtype=complex), 0.1)
        assert exit_code_for(raised.value) == EXIT_NUMERICAL

    @pytest.mark.parametrize("rho, message", [
        (np.array([[0.5, 1e-6], [0, 0.5]]), "not Hermitian"),
        (np.diag([1.2, -0.2]), "eigenvalue below tolerance"),
    ])
    def test_bad_start_state_names_its_step(self, rho, message):
        with pytest.raises(StateInvariantError,
                           match=f"{message}.* before step 0$"):
            step(rho.astype(complex), 0.3, np.eye(2, dtype=complex), 0.1)

    def test_checkpoint_catches_a_state_gone_bad(self):
        # A non-unitary U = diag(1, 100) keeps the trace at 1 but scales the
        # off-diagonal entry 100-fold, past what positivity allows; the full
        # check on the final state sees it.
        rho = np.array([[1, 1e-6], [1e-6, 0]], dtype=complex)
        with pytest.raises(StateInvariantError,
                           match="eigenvalue below tolerance at step 0$"):
            step(rho, 0.0, np.diag([1, 100]).astype(complex), 0.0)

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            step(ground_density(2), 0.0, np.eye(8, dtype=complex), 0.1)

    def test_rejects_bad_gamma(self):
        with pytest.raises(ConfigError):
            step(ground_density(2), 0.0, np.eye(4, dtype=complex), 1.5)

    @pytest.mark.parametrize("s, qubit", [(0.2, 0), (0.2, 3),
                                          (float("nan"), 1), (-1e-9, 1),
                                          (1.0 + 1e-9, 1), (2.0, 1),
                                          (float("inf"), 1)])
    def test_rejects_bad_input_qubit_or_value(self, s, qubit):
        with pytest.raises(ValidationError):
            step(ground_density(2), s, np.eye(4, dtype=complex), 0.1,
                 input_qubit=qubit)

    def test_unitary_step_preserves_purity(self):
        cfg = small_config()
        u = evolution_operator(cfg)
        rho = ground_density(cfg.n_qubits)
        for s in (0.3, 0.8, 0.1):
            rho, _ = step(rho, s, u, gamma=0.0)
        purity = np.trace(rho @ rho).real
        assert purity == pytest.approx(1.0, abs=1e-12)


class TestRunSequence:
    def test_length_validation(self):
        cfg = small_config()
        with pytest.raises(ConfigError):
            run_sequence(cfg, np.zeros(cfg.total_steps - 1))

    def test_rejects_nonfinite_inputs(self):
        cfg = small_config()
        bad = np.zeros(cfg.total_steps)
        bad[3] = np.inf
        with pytest.raises(ConfigError):
            run_sequence(cfg, bad)

    @pytest.mark.parametrize("value", [-0.5, 1.5, -np.inf])
    def test_rejects_inputs_outside_unit_interval(self, value):
        cfg = small_config()
        bad = np.full(cfg.total_steps, 0.5)
        bad[-1] = value
        with pytest.raises(ConfigError, match=r"in \[0, 1\]"):
            run_sequence(cfg, bad)

    def test_deterministic(self):
        cfg = small_config()
        inputs = np.zeros(cfg.total_steps)
        a = run_sequence(cfg, inputs)
        b = run_sequence(cfg, inputs)
        assert a.z_rows.tobytes() == b.z_rows.tobytes()

    @pytest.mark.parametrize("schedule", [
        dict(n_pre=10, n_fb=20, n_test=10), dict(n_pre=1, n_fb=1, n_test=1),
        dict(n_pre=3, n_fb=1, n_test=2), dict(n_pre=1, n_fb=2, n_test=1)])
    @pytest.mark.parametrize("make", [small_config, EsnConfig],
                             ids=["reservoir", "esn"])
    def test_phase_tags(self, make, schedule):
        # One owner for the windows: phase_of tags step k "train" or "test"
        # exactly when train_slice or test_slice holds it.
        cfg = make(**schedule)
        inputs = np.zeros(cfg.total_steps)
        rows = (run_esn(cfg, inputs) if isinstance(cfg, EsnConfig)
                else run_sequence(cfg, inputs).z_rows)
        steps = range(len(rows))
        phases = [cfg.phase_of(k) for k in steps]
        assert phases == (["prep"] * cfg.n_pre + ["train"] * cfg.n_fb
                          + ["test"] * cfg.n_test)
        for k, phase in zip(steps, phases):
            assert (phase == "train") == (k in steps[cfg.train_slice])
            assert (phase == "test") == (k in steps[cfg.test_slice])
        assert len(rows[cfg.train_slice]) == cfg.n_fb
        assert len(rows[cfg.test_slice]) == cfg.n_test

    def test_hermiticity_checked_every_check_interval_steps(self):
        # A non-unitary U = diag(1, 1.1) grows a start state's one-sided
        # off-diagonal entry 1.1-fold per input, past the Hermiticity
        # tolerance from input 24 on; the trace stays 1, so the first full
        # checkpoint, after input _CHECK_INTERVAL - 1, is where it surfaces.
        rho = np.array([[1, 1e-11], [0, 0]], dtype=complex)
        with pytest.raises(StateInvariantError, match=(
                f"not Hermitian.* at step {reservoir._CHECK_INTERVAL - 1}$")):
            reservoir._evolve(np.diag([1, 1.1]).astype(complex), 0.0, rho,
                              np.zeros(2 * reservoir._CHECK_INTERVAL), 1)

    def test_expectations_in_physical_range(self):
        cfg = small_config(topology="ring")
        rng = np.random.default_rng(4)
        traj = run_sequence(cfg, rng.uniform(0, 1, cfg.total_steps))
        assert traj.z_rows.min() >= -1 - 1e-9
        assert traj.z_rows.max() <= 1 + 1e-9

    def test_topologies_produce_different_trajectories(self):
        inputs = np.full(small_config().total_steps, 0.4)
        a = run_sequence(small_config(topology="linear"), inputs)
        b = run_sequence(small_config(topology="ring"), inputs)
        assert not np.allclose(a.z_rows, b.z_rows)


class TestBlasThreadPolicy:
    def test_runs_at_one_thread_and_restores_the_count(self, caller_threads,
                                                       monkeypatch):
        get, set_ = caller_threads
        set_(2)
        with one_blas_thread():
            assert get() == 1
        assert get() == 2
        # A caller already at one thread sees no thread-count call.
        set_(1)
        blas = linalg.kernel_blas()
        calls = []

        def recording_set(count):
            calls.append(count)
            set_(count)

        monkeypatch.setattr(linalg, "kernel_blas",
                            lambda: blas._replace(threads=(get, recording_set)))
        with one_blas_thread():
            assert get() == 1
        assert calls == []

    def test_caller_count_restored_and_results_bitwise_equal(
            self, caller_threads):
        get, set_ = caller_threads
        cfg = small_config(n_qubits=6)
        inputs = np.random.default_rng(5).uniform(0, 1, cfg.total_steps)
        u = evolution_operator(cfg)
        rows = {}
        for count in (1, 2):
            set_(count)
            rows[count] = run_sequence(cfg, inputs).z_rows
            assert get() == count
            step(ground_density(cfg.n_qubits), 0.3, u, cfg.gamma)
            assert get() == count
        assert rows[1].tobytes() == rows[2].tobytes()

    def test_large_arrays_bitwise_equal_at_any_caller_count(
            self, caller_threads, monkeypatch):
        # At two threads OpenBLAS's `eigh` rounds the build of a dim-512 U
        # differently from one thread; the build and the kernel run at one
        # thread, so neither U nor the rows depend on the caller's count,
        # and one U serves every count.
        get, set_ = caller_threads
        builds = []
        build = reservoir.evolution_operator

        def counted(config):
            builds.append(config.coupling_draw)
            return build(config)

        monkeypatch.setattr(reservoir, "evolution_operator", counted)
        reservoir._draw_unitary.cache_clear()
        cfg = small_config(n_qubits=9, n_pre=1, n_fb=1, n_test=1)
        rows = {}
        for count in (1, 2):
            set_(count)
            rows[count] = run_sequence(cfg, [0.3, 0.7, 0.3]).z_rows
            assert get() == count
        assert builds == [cfg.coupling_draw]
        assert rows[1].tobytes() == rows[2].tobytes()
        reservoir._draw_unitary.cache_clear()
        fresh = run_sequence(cfg, [0.3, 0.7, 0.3]).z_rows  # U built at 2
        assert fresh.tobytes() == rows[1].tobytes()

    def test_caller_count_restored_after_error(self, caller_threads):
        get, set_ = caller_threads
        set_(2)
        u = evolution_operator(small_config(n_qubits=6))
        with pytest.raises(StateInvariantError):
            step(2 * ground_density(6), 0.3, u, 0.1)
        assert get() == 2


def test_scipy_fallback_runs_the_kernel_bitwise_alike(monkeypatch):
    fallback = load_blas(BLAS_LIBRARIES[1])
    if fallback is None:
        pytest.skip("scipy is not installed")
    cfg = small_config(n_qubits=6)
    inputs = np.random.default_rng(9).uniform(0, 1, cfg.total_steps)
    expected = run_sequence(cfg, inputs).z_rows
    for module in (linalg, reservoir):
        monkeypatch.setattr(module, "kernel_blas", lambda: fallback)
    assert run_sequence(cfg, inputs).z_rows.tobytes() == expected.tobytes()
    negative = np.diag(np.r_[-0.5, np.full(63, 1.5 / 63)]).astype(complex)
    with pytest.raises(StateInvariantError, match="eigenvalue"):
        check_start_state(negative)


def test_numpy_thread_symbols_are_the_kernel_library_s():
    # one_blas_thread sets only kernel_blas().threads. That holds numpy's own
    # products and eigensolvers too (the eigh of unitary_exp) because,
    # whenever numpy's library exports thread symbols, the kernel binds it.
    lib = ctypes.CDLL(
        importlib.import_module("numpy._core._multiarray_umath").__file__)
    try:
        get, set_ = (getattr(lib, f"scipy_openblas_{verb}_num_threads64_")
                     for verb in ("get", "set"))
    except AttributeError:
        pytest.skip("numpy's library exports no OpenBLAS thread symbols")

    def address(function):
        return ctypes.cast(function, ctypes.c_void_p).value

    blas = linalg.kernel_blas()
    assert address(blas.zgemm) == address(lib.scipy_zgemm_64_)
    assert blas.index is ctypes.c_int64
    assert [address(f) for f in blas.threads] == [address(get), address(set_)]

