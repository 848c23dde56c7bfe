"""Pauli-basis decompositions of simulated states and processes.

A unitary U on k qubits expands as U = sum_m c_m E_m over the tensor Pauli
basis E_m (I, X, Y, Z per qubit, lexicographic), with c_m = Tr(E_m^+ U)/2^k
and sum |c_m|^2 = 1.  The process matrix of the corresponding channel is
the rank-one outer product chi_mn = c_m conj(c_n); it is Hermitian,
positive semidefinite, has unit trace, and is blind to the global phase of
U.  Only unitary processes are supported here: the simulator has exact
access to U, so statistical reconstruction is unnecessary.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iproduct

import numpy as np

from .pauli import PauliTerm, dense_sum

UNITARITY_TOL = 1e-8
MAX_QUBITS = 3


def pauli_labels(k: int) -> tuple[str, ...]:
    return tuple("".join(p) for p in iproduct("IXYZ", repeat=k))


def pauli_basis(k: int) -> list[np.ndarray]:
    """Dense matrices of ``pauli_labels(k)``, qubit 1 the most significant."""
    terms = (PauliTerm(1.0, {s: p.lower() for s, p in enumerate(label, 1) if p != "I"})
             for label in pauli_labels(k))
    return [dense_sum([t], k) for t in terms]


def _qubit_count(u: np.ndarray) -> int:
    dim = u.shape[0]
    k = dim.bit_length() - 1
    if u.shape != (dim, dim) or 1 << k != dim or k > MAX_QUBITS:
        raise ValueError(f"need a square matrix on at most {MAX_QUBITS} qubits, got shape {u.shape}")
    return k


def pauli_coefficients(u: np.ndarray) -> np.ndarray:
    """Expansion coefficients c_m = Tr(E_m^+ U)/2^k of a unitary."""
    k = _qubit_count(u)
    dev = np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0])))
    if dev > UNITARITY_TOL:
        raise ValueError(f"input is not unitary (deviation {dev:.3e})")
    coeffs = np.array([np.trace(e.conj().T @ u) / (1 << k) for e in pauli_basis(k)])
    assert abs(np.sum(np.abs(coeffs) ** 2) - 1.0) < 1e-10
    return coeffs


@dataclass(frozen=True)
class ChiMatrix:
    """Process matrix over the Pauli basis, with its basis labels."""

    matrix: np.ndarray
    labels: tuple[str, ...]

    def entry(self, row: str, col: str) -> complex:
        return complex(self.matrix[self.labels.index(row), self.labels.index(col)])


def chi_from_unitary(u: np.ndarray) -> ChiMatrix:
    """Rank-one chi matrix of the channel rho -> U rho U^+."""
    c = pauli_coefficients(u)
    k = _qubit_count(u)
    return ChiMatrix(matrix=np.outer(c, c.conj()), labels=pauli_labels(k))


def density_matrix(state: np.ndarray) -> np.ndarray:
    """Pure-state density matrix |s><s| (k <= 3 logical qubits)."""
    state = np.asarray(state, dtype=complex)
    if state.ndim != 1 or state.shape[0] > (1 << MAX_QUBITS):
        raise ValueError("expected a state vector on at most three qubits")
    if abs(np.linalg.norm(state) - 1.0) > 1e-10:
        raise ValueError("state must be normalised")
    return np.outer(state, state.conj())


def matrix_to_json(matrix: np.ndarray, labels: tuple[str, ...] | None = None) -> dict:
    """Nested [re, im] serialisation used in machine-readable reports."""
    entries = [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(matrix)]
    out: dict = {"entries": entries}
    if labels is not None:
        out["labels"] = list(labels)
    return out
