import numpy as np
import pytest

from spinqrc.errors import ValidationError
from spinqrc.qubits import PAULI_X, ground_density, rotation_x, z_sign_table
from spinqrc.reservoir import Bond, CouplingSet, Topology, build_hamiltonian


def single_bond_hamiltonian(i, j, n_qubits):
    bond = Bond(i, j, 1.0)
    return build_hamiltonian(CouplingSet(Topology.LINEAR, n_qubits, (bond,)),
                             n_qubits)


def test_heisenberg_two_qubit_spectrum():
    # exchange coupling splits into singlet (-3) and triplet (+1)
    h = single_bond_hamiltonian(1, 2, 2)
    assert np.allclose(h, h.conj().T)
    evals = np.linalg.eigvalsh(h)
    assert np.allclose(evals, [-3, 1, 1, 1], atol=1e-12)


def test_heisenberg_symmetric_in_bond_order():
    a = single_bond_hamiltonian(1, 3, 3)
    b = single_bond_hamiltonian(3, 1, 3)
    assert np.allclose(a, b)


def test_heisenberg_rejects_self_bond():
    with pytest.raises(ValidationError):
        single_bond_hamiltonian(2, 2, 3)


def test_rotation_zero_is_identity():
    assert np.allclose(rotation_x(0.0, 3), np.eye(8))


def test_rotation_full_flip():
    # s=1 on one qubit is iX; it takes |0> to the excited state
    r = rotation_x(1.0, 1)
    assert np.allclose(r, 1j * PAULI_X, atol=1e-12)
    rho = r @ ground_density(1) @ r.conj().T
    assert np.allclose(rho, np.diag([0, 1]), atol=1e-12)


def test_rotation_double_flip_is_identity_up_to_phase():
    r = rotation_x(2.0, 1)
    assert np.allclose(r, -np.eye(2), atol=1e-12)


def test_rotation_is_unitary():
    for s in (0.13, 0.5, 0.97, 1.73):
        r = rotation_x(s, 2, qubit=2)
        assert np.linalg.norm(r.conj().T @ r - np.eye(4)) < 1e-12


def test_rotation_acts_only_on_chosen_qubit():
    r = rotation_x(0.37, 3, qubit=2)
    expected = np.kron(np.kron(np.eye(2), rotation_x(0.37, 1)), np.eye(2))
    assert np.allclose(r, expected)


def test_rotation_rejects_nonfinite():
    with pytest.raises(ValidationError):
        rotation_x(float("nan"), 2)


def test_ground_density_properties():
    rho = ground_density(3)
    assert rho.trace() == pytest.approx(1.0)
    assert np.allclose(rho, rho @ rho)  # pure
    assert np.allclose(z_sign_table(3) @ rho.diagonal().real, [1, 1, 1])


def test_z_sign_table_two_qubits():
    table = z_sign_table(2)
    assert np.allclose(table[0], [1, 1, -1, -1])
    assert np.allclose(table[1], [1, -1, 1, -1])


def test_z_expectations_matches_dense_trace():
    # the sign table's route to <Z_i> gives the numbers of Tr(Z_i rho)
    rng = np.random.default_rng(5)
    a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    rho = a @ a.conj().T
    rho /= rho.trace()
    fast = z_sign_table(3) @ rho.diagonal().real
    z = np.diag([1.0, -1.0])
    dense = [np.trace(np.kron(np.kron(np.eye(2**(i - 1)), z),
                              np.eye(2**(3 - i))) @ rho).real
             for i in (1, 2, 3)]
    assert np.allclose(fast, dense, atol=1e-12)
