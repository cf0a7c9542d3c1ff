import numpy as np
import pytest

from spinqrc import linalg, reservoir
from spinqrc.errors import ConfigError, StateInvariantError, ValidationError
from spinqrc.linalg import (BLAS_LIBRARIES, SMALL_OPERATOR_DIM, blas_threads,
                            load_blas, set_blas_threads,
                            small_operator_threads, trace_distance)
from spinqrc.qubits import ground_density, rotation_x
from spinqrc.reservoir import (Bond, CouplingSet, Phase, ReservoirConfig,
                               ReservoirState, Topology, apply_channel,
                               build_hamiltonian, check_density_matrix,
                               evolution_operator, run_sequence,
                               sample_couplings, step, topology_bonds)


def small_config(**kw):
    defaults = dict(n_qubits=4, n_pre=10, n_fb=20, n_test=10)
    defaults.update(kw)
    return ReservoirConfig(**defaults)


def kron_route_step(rho, s, u, gamma, rho0, input_qubit=1):
    """One channel step with the propagator composed as U @ rotation_x."""
    n_qubits = rho.shape[0].bit_length() - 1
    propagator = u @ rotation_x(s, n_qubits, qubit=input_qubit)
    return apply_channel(rho, propagator, gamma, rho0)


def basis_density(dim: int, index: int) -> np.ndarray:
    rho = np.zeros((dim, dim), dtype=complex)
    rho[index, index] = 1.0
    return rho


class TestConfig:
    def test_defaults(self):
        cfg = ReservoirConfig()
        assert cfg.n_qubits == 6
        assert cfg.gamma == 0.1
        assert cfg.dt == pytest.approx(np.pi * 0.5)
        assert cfg.total_steps == 440

    def test_phase_boundaries(self):
        cfg = small_config()
        assert cfg.phase_of(0) is Phase.PREP
        assert cfg.phase_of(9) is Phase.PREP
        assert cfg.phase_of(10) is Phase.TRAIN
        assert cfg.phase_of(29) is Phase.TRAIN
        assert cfg.phase_of(30) is Phase.TEST

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
    ])
    def test_rejects_bad_values(self, kw):
        with pytest.raises(ConfigError):
            small_config(**kw)

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
        strengths = [bond.strength for bond in a.bonds]
        assert strengths == [bond.strength for bond in b.bonds]
        assert max(strengths) == pytest.approx(1.0)
        assert all(0 <= s <= 1 for s in strengths)

    def test_different_seeds_differ(self):
        a = sample_couplings(Topology.LINEAR, 6, seed=0)
        b = sample_couplings(Topology.LINEAR, 6, seed=1)
        assert [x.strength for x in a.bonds] != [x.strength for x in b.bonds]

    def test_single_bond_chain_has_unit_coupling(self):
        # normalization forces the lone bond of a 2-site chain to 1
        cs = sample_couplings(Topology.LINEAR, 2, seed=12345)
        assert cs.bonds[0].strength == pytest.approx(1.0)


PAULIS = (np.array([[0, 1], [1, 0]], dtype=complex),
          np.array([[0, -1j], [1j, 0]], dtype=complex),
          np.array([[1, 0], [0, -1]], dtype=complex))


def kron_chain_hamiltonian(couplings, n_qubits):
    """sum_bonds J (X_iX_j + Y_iY_j + Z_iZ_j), each Pauli pair embedded by
    a Kronecker chain of identities."""
    def embed(op, i):
        return np.kron(np.kron(np.eye(2**(i - 1), dtype=complex), op),
                       np.eye(2**(n_qubits - i), dtype=complex))

    h = np.zeros((2**n_qubits, 2**n_qubits), dtype=complex)
    for bond in couplings.bonds:
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
            couplings = sample_couplings(topology, n_qubits, seed)
            h = build_hamiltonian(couplings, n_qubits)
            expected = kron_chain_hamiltonian(couplings, n_qubits)
            assert h.tobytes() == expected.tobytes()

    def test_rejects_qubit_outside_array(self):
        couplings = CouplingSet(Topology.LINEAR, 3, (Bond(1, 4, 1.0),))
        with pytest.raises(ValidationError):
            build_hamiltonian(couplings, 3)


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


class TestCheckDensityMatrix:
    def test_accepts_ground_state(self):
        check_density_matrix(ground_density(3))

    def test_rejects_wrong_trace(self):
        with pytest.raises(StateInvariantError):
            check_density_matrix(2.0 * ground_density(2))

    def test_rejects_nonhermitian(self):
        rho = ground_density(2).astype(complex)
        rho[0, 1] = 1e-6
        with pytest.raises(StateInvariantError):
            check_density_matrix(rho)

    def test_rejects_negative_eigenvalue(self):
        rho = np.diag([1.1, -0.1, 0.0, 0.0]).astype(complex)
        with pytest.raises(StateInvariantError):
            check_density_matrix(rho)

    def test_tolerates_tiny_negative_eigenvalue(self):
        rho = np.diag([1.0, -1e-12, 1e-12, 0.0]).astype(complex)
        check_density_matrix(rho)


class TestStep:
    def test_full_reset_returns_ground(self):
        cfg = small_config()
        u = evolution_operator(cfg)
        rho0 = ground_density(cfg.n_qubits)
        state = ReservoirState(rho=rho0.copy())
        new, out = step(state, 0.73, u, gamma=1.0, rho0=rho0)
        assert np.allclose(new.rho, rho0, atol=1e-12)
        assert np.allclose(out.z_expect, 1.0)
        assert new.step == 1

    def test_identity_evolution_is_noop(self):
        rho = np.diag([0.5, 0.25, 0.25, 0.0]).astype(complex)
        state = ReservoirState(rho=rho)
        new, _ = step(state, 0.0, np.eye(4, dtype=complex), gamma=0.0,
                      rho0=ground_density(2))
        assert np.allclose(new.rho, rho, atol=1e-14)

    def test_single_qubit_flip(self):
        state = ReservoirState(rho=ground_density(1))
        _, out = step(state, 1.0, np.eye(2, dtype=complex), gamma=0.0,
                      rho0=ground_density(1))
        assert out.z_expect[0] == pytest.approx(-1.0)

    def test_rejects_invalid_entry_state(self):
        bad = ReservoirState(rho=np.eye(4, dtype=complex))  # trace 4
        with pytest.raises(StateInvariantError):
            step(bad, 0.0, np.eye(4, dtype=complex), 0.1, ground_density(2))

    def test_rejects_dimension_mismatch(self):
        state = ReservoirState(rho=ground_density(2))
        with pytest.raises(ValidationError):
            step(state, 0.0, np.eye(8, dtype=complex), 0.1, ground_density(2))

    def test_rejects_bad_gamma(self):
        state = ReservoirState(rho=ground_density(2))
        with pytest.raises(ConfigError):
            step(state, 0.0, np.eye(4, dtype=complex), 1.5, ground_density(2))

    @pytest.mark.parametrize("s, qubit", [(0.2, 0), (0.2, 3),
                                          (float("nan"), 1)])
    def test_rejects_bad_input_qubit_or_value(self, s, qubit):
        state = ReservoirState(rho=ground_density(2))
        with pytest.raises(ValidationError):
            step(state, s, np.eye(4, dtype=complex), 0.1, ground_density(2),
                 input_qubit=qubit)

    def test_unitary_step_preserves_purity(self):
        cfg = small_config()
        u = evolution_operator(cfg)
        rho0 = ground_density(cfg.n_qubits)
        state = ReservoirState(rho=rho0.copy())
        for s in (0.3, 0.8, 0.1):
            state, _ = step(state, s, u, gamma=0.0, rho0=rho0)
        purity = np.trace(state.rho @ state.rho).real
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

    def test_deterministic(self):
        cfg = small_config()
        inputs = np.zeros(cfg.total_steps)
        a = run_sequence(cfg, inputs)
        b = run_sequence(cfg, inputs)
        assert a.z_rows.tobytes() == b.z_rows.tobytes()

    def test_phase_tags(self):
        cfg = small_config()
        traj = run_sequence(cfg, np.zeros(cfg.total_steps))
        phases = list(traj.phases)
        assert phases.count(Phase.PREP) == cfg.n_pre
        assert phases.count(Phase.TRAIN) == cfg.n_fb
        assert phases.count(Phase.TEST) == cfg.n_test
        assert phases == sorted(phases, key=[Phase.PREP, Phase.TRAIN,
                                             Phase.TEST].index)
        assert traj.z_rows[traj.train_slice].shape == (cfg.n_fb, cfg.n_qubits)
        assert traj.z_rows[traj.test_slice].shape == (cfg.n_test, cfg.n_qubits)

    def test_matches_single_step_route(self):
        cfg = small_config(gamma=0.17)
        rng = np.random.default_rng(9)
        inputs = rng.uniform(0, 1, cfg.total_steps)
        traj = run_sequence(cfg, inputs)
        u = evolution_operator(cfg)
        rho0 = ground_density(cfg.n_qubits)
        state = ReservoirState(rho=rho0.copy())
        rho_kron = rho0.copy()
        for k, s in enumerate(inputs):
            state, out = step(state, float(s), u, cfg.gamma, rho0)
            assert np.allclose(traj.z_rows[k], out.z_expect, atol=1e-12)
            rho_kron = kron_route_step(rho_kron, float(s), u, cfg.gamma, rho0)
            assert np.abs(state.rho - rho_kron).max() <= 1e-14

    def test_offcenter_input_qubit_matches_single_step_route(self):
        cfg = small_config(input_qubit=3)
        rng = np.random.default_rng(2)
        inputs = rng.uniform(0, 1, cfg.total_steps)
        traj = run_sequence(cfg, inputs)
        u = evolution_operator(cfg)
        rho0 = ground_density(cfg.n_qubits)
        state = ReservoirState(rho=rho0.copy())
        rho_kron = rho0.copy()
        for k, s in enumerate(inputs):
            state, out = step(state, float(s), u, cfg.gamma, rho0,
                              input_qubit=3)
            assert np.allclose(traj.z_rows[k], out.z_expect, atol=1e-12)
            rho_kron = kron_route_step(rho_kron, float(s), u, cfg.gamma, rho0,
                                       input_qubit=3)
            assert np.abs(state.rho - rho_kron).max() <= 1e-14

    def test_repeated_inputs_match_single_step_route(self):
        # A drive over three values reuses, then evicts, the two cached
        # propagators; each step must still equal a freshly composed one.
        cfg = small_config(gamma=0.13)
        rng = np.random.default_rng(3)
        inputs = rng.choice([0.0, 1.0, 0.35], cfg.total_steps)
        traj = run_sequence(cfg, inputs)
        u = evolution_operator(cfg)
        rho0 = ground_density(cfg.n_qubits)
        state = ReservoirState(rho=rho0.copy())
        for k, s in enumerate(inputs):
            state, out = step(state, float(s), u, cfg.gamma, rho0)
            assert np.allclose(traj.z_rows[k], out.z_expect, atol=1e-12)

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


@pytest.fixture
def caller_threads():
    """Run the test with the caller's BLAS thread counts restored after."""
    saved = blas_threads()
    yield saved
    set_blas_threads(saved)


@pytest.mark.skipif(not blas_threads(),
                    reason="no bundled OpenBLAS exposes its thread controls")
class TestBlasThreadPolicy:
    def test_small_operators_run_at_one_thread(self, caller_threads):
        set_blas_threads([2] * len(caller_threads))
        with small_operator_threads(SMALL_OPERATOR_DIM):
            assert set(blas_threads()) == {1}
        with small_operator_threads(2 * SMALL_OPERATOR_DIM):
            assert set(blas_threads()) == {2}
        assert set(blas_threads()) == {2}

    def test_caller_count_restored_and_results_bitwise_equal(
            self, caller_threads):
        cfg = small_config(n_qubits=6)
        inputs = np.random.default_rng(5).uniform(0, 1, cfg.total_steps)
        u = evolution_operator(cfg)
        rho0 = ground_density(cfg.n_qubits)
        rows = {}
        for count in (1, 2):
            set_blas_threads([count] * len(caller_threads))
            rows[count] = run_sequence(cfg, inputs).z_rows
            assert set(blas_threads()) == {count}
            step(ReservoirState(rho=rho0.copy()), 0.3, u, cfg.gamma, rho0)
            assert set(blas_threads()) == {count}
        assert rows[1].tobytes() == rows[2].tobytes()

    def test_unitary_cache_keys_large_arrays_on_thread_count(
            self, caller_threads, monkeypatch):
        # Above SMALL_OPERATOR_DIM the bits of U depend on the caller's
        # thread count, so a run at another count must not reuse the U an
        # earlier run built; at n <= 8 U is built at one thread either way.
        builds = []
        build = reservoir.evolution_operator

        def counted(config):
            builds.append((config.n_qubits, blas_threads()))
            return build(config)

        monkeypatch.setattr(reservoir, "evolution_operator", counted)
        reservoir._unitary.cache_clear()
        rows = {}
        for n in (6, 9):
            cfg = small_config(n_qubits=n, n_pre=1, n_fb=1, n_test=1)
            for count in (1, 2, 2):
                set_blas_threads([count] * len(caller_threads))
                rows[n, count] = run_sequence(cfg, [0.3, 0.7, 0.3]).z_rows
        assert builds == [(6, (1,)), (9, (1,)), (9, (2,))]
        reservoir._unitary.cache_clear()
        fresh = run_sequence(cfg, [0.3, 0.7, 0.3]).z_rows
        assert fresh.tobytes() == rows[9, 2].tobytes()

    def test_caller_count_restored_after_error(self, caller_threads):
        set_blas_threads([2] * len(caller_threads))
        rho0 = ground_density(6)
        u = evolution_operator(small_config(n_qubits=6))
        with pytest.raises(StateInvariantError):
            step(ReservoirState(rho=2 * rho0), 0.3, u, 0.1, rho0)
        assert set(blas_threads()) == {2}


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
        check_density_matrix(negative)


def test_contraction_of_trace_distance():
    # the reset channel shrinks the distance between any two states by
    # exactly (1 - gamma) per step, independent of the inputs
    cfg = small_config(gamma=0.2)
    u = evolution_operator(cfg)
    dim = 2**cfg.n_qubits
    rho0 = ground_density(cfg.n_qubits)
    a = ReservoirState(rho=basis_density(dim, 0))
    b = ReservoirState(rho=basis_density(dim, dim - 1))
    d0 = trace_distance(a.rho, b.rho)
    rng = np.random.default_rng(0)
    for k in range(1, 21):
        s = float(rng.uniform(0, 1))
        a, _ = step(a, s, u, cfg.gamma, rho0)
        b, _ = step(b, s, u, cfg.gamma, rho0)
        expected = (1 - cfg.gamma) ** k * d0
        assert trace_distance(a.rho, b.rho) == pytest.approx(expected,
                                                             rel=1e-10)
