"""Small dense reference of the reservoir channel, independent of spinqrc.

    rho' = (1 - gamma) * P rho P^+ + gamma * |0..0><0..0|,   P = U R(s)

with U = exp(-i pi theta0 H), H = sum_bonds J (XX + YY + ZZ), and
R(s) = exp(+i pi s X_q / 2) on the input qubit (qubit 1 is the most
significant bit). H is assembled from bit operations rather than Pauli
Kronecker chains, and every step uses plain dense products, so agreement
with the program is a differential check of its kernel. Bond strengths
follow the documented draw: one uniform [0, 1) value per bond from
``default_rng(seed)``, rescaled so the largest is 1.
"""
from __future__ import annotations

import numpy as np


def bonds(topology: str, n: int, seed: int) -> list[tuple[int, int, float]]:
    edges = [(i, i + 1) for i in range(1, n)]
    if topology == "ring":
        edges.append((n, 1))
    raw = np.random.default_rng(seed).uniform(0.0, 1.0, len(edges))
    raw /= raw.max()
    return [(i, j, float(s)) for (i, j), s in zip(edges, raw)]


def hamiltonian(n: int, bond_list) -> np.ndarray:
    dim = 2**n
    idx = np.arange(dim)
    h = np.zeros((dim, dim), dtype=complex)
    for i, j, strength in bond_list:
        bi = (idx >> (n - i)) & 1
        bj = (idx >> (n - j)) & 1
        h[idx, idx] += strength * np.where(bi == bj, 1.0, -1.0)
        # XX + YY maps |..01..> <-> |..10..> with amplitude 2.
        flip = idx ^ ((1 << (n - i)) | (1 << (n - j)))
        anti = bi != bj
        h[flip[anti], idx[anti]] += 2.0 * strength
    return h


def z_rows(n: int, topology: str, gamma: float, seed: int, inputs,
           theta0: float = 0.5, input_qubit: int = 1) -> np.ndarray:
    """Per-step <Z_i> rows of the channel driven by ``inputs``."""
    w, v = np.linalg.eigh(hamiltonian(n, bonds(topology, n, seed)))
    u = (v * np.exp(-1j * np.pi * theta0 * w)) @ v.conj().T
    dim = 2**n
    rho0 = np.zeros((dim, dim), dtype=complex)
    rho0[0, 0] = 1.0
    signs = np.array([1.0 - 2.0 * ((np.arange(dim) >> (n - 1 - i)) & 1)
                      for i in range(n)])
    left = np.eye(2 ** (input_qubit - 1))
    right = np.eye(2 ** (n - input_qubit))
    rho = rho0
    rows = np.empty((len(inputs), n))
    for k, s in enumerate(inputs):
        half = 0.5 * np.pi * s
        r2 = np.array([[np.cos(half), 1j * np.sin(half)],
                       [1j * np.sin(half), np.cos(half)]])
        p = u @ np.kron(np.kron(left, r2), right)
        rho = (1.0 - gamma) * (p @ rho @ p.conj().T) + gamma * rho0
        rows[k] = signs @ rho.diagonal().real
    return rows
