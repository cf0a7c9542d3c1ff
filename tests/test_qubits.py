import numpy as np
import pytest

from spinqrc.errors import ValidationError
from spinqrc.qubits import ground_density, z_sign_table
from spinqrc.reservoir import Bond, build_hamiltonian, step

X = np.array([[0, 1], [1, 0]], dtype=complex)


def single_bond_hamiltonian(i, j, n_qubits):
    bond = Bond(i, j, 1.0)
    return build_hamiltonian((bond,), n_qubits)


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


def random_density(n_qubits, seed):
    rng = np.random.default_rng(seed)
    dim = 2**n_qubits
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / rho.trace()


def rotate(rho, s, qubit=1):
    """R(s) rho R(s)† for the input rotation R(s) = exp(+i pi s X_q / 2),
    as ``step`` applies it: no free evolution (U = I) and no reset."""
    rotated, _ = step(rho, s, np.eye(rho.shape[0], dtype=complex), 0.0,
                      input_qubit=qubit)
    return rotated


def test_rotation_zero_is_identity():
    rho = random_density(3, seed=1)
    assert np.allclose(rotate(rho, 0.0), rho, atol=1e-14)


def test_rotation_full_flip():
    # s=1 on one qubit is iX; it takes |0> to the excited state
    assert np.allclose(rotate(ground_density(1), 1.0), np.diag([0, 1]),
                       atol=1e-12)
    rho = random_density(1, seed=2)
    assert np.allclose(rotate(rho, 1.0), X @ rho @ X, atol=1e-12)


def test_rotation_double_flip_is_identity_up_to_phase():
    rho = random_density(2, seed=3)
    assert np.allclose(rotate(rotate(rho, 1.0), 1.0), rho, atol=1e-12)


def test_rotation_is_unitary():
    rho = random_density(2, seed=4)
    for s in (0.13, 0.5, 0.97, 1.0):
        rotated = rotate(rho, s, qubit=2)
        assert np.allclose(np.linalg.eigvalsh(rotated),
                           np.linalg.eigvalsh(rho), atol=1e-12)


def test_rotation_acts_only_on_chosen_qubit():
    half = 0.5 * np.pi * 0.37
    r2 = np.cos(half) * np.eye(2) + 1j * np.sin(half) * X
    r = np.kron(np.kron(np.eye(2), r2), np.eye(2))
    rho = random_density(3, seed=5)
    assert np.allclose(rotate(rho, 0.37, qubit=2), r @ rho @ r.conj().T,
                       atol=1e-12)


def test_rotation_rejects_nonfinite():
    with pytest.raises(ValidationError):
        rotate(ground_density(2), float("nan"))


def test_ground_density_properties():
    rho = ground_density(3)
    assert rho.trace() == pytest.approx(1.0)
    assert np.allclose(rho, rho @ rho)  # pure
    assert np.allclose(z_sign_table(3) @ rho.diagonal().real, [1, 1, 1])


@pytest.mark.parametrize("n_qubits", [0, 11])
def test_ground_density_rejects_qubit_count_outside_range(n_qubits):
    with pytest.raises(ValidationError,
                       match=r"n_qubits must be in \[1, 10\]"):
        ground_density(n_qubits)


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
