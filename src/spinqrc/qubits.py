"""Operators and basis states for arrays of spin qubits.

Basis convention used across the whole package: the computational basis
index spells the qubit values most-significant-bit first, so basis state
``b`` of an n-qubit array assigns qubit 1 the leading bit. ``|0>`` is the
ground state and has ``<Z> = +1`` (Z = diag(1, -1)).
"""
from __future__ import annotations

import functools

import numpy as np

from .errors import ValidationError

MAX_QUBITS = 10


def _check_qubit_count(n_qubits: int) -> None:
    if not 1 <= n_qubits <= MAX_QUBITS:
        raise ValidationError(f"n_qubits must be in [1, {MAX_QUBITS}], got {n_qubits}")


def ground_density(n_qubits: int) -> np.ndarray:
    """Projector onto the all-ground state |0...0>."""
    _check_qubit_count(n_qubits)
    dim = 2**n_qubits
    rho = np.zeros((dim, dim), dtype=complex)
    rho[0, 0] = 1.0
    return rho


@functools.cache
def z_sign_table(n_qubits: int) -> np.ndarray:
    """Row ``i-1`` holds the diagonal of Z_i: +1 where qubit i is 0, else -1.

    Built once per qubit count and returned read-only."""
    _check_qubit_count(n_qubits)
    dim = 2**n_qubits
    idx = np.arange(dim)
    table = np.empty((n_qubits, dim))
    for i in range(n_qubits):
        table[i] = 1.0 - 2.0 * ((idx >> (n_qubits - 1 - i)) & 1)
    table.flags.writeable = False
    return table

