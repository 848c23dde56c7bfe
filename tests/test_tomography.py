"""Pauli-basis coefficients, process matrices, and density matrices."""

import cmath
import math

import numpy as np
import pytest

from mjones.tomography import (
    ChiMatrix,
    chi_from_unitary,
    density_matrix,
    matrix_to_json,
    pauli_basis,
    pauli_coefficients,
    pauli_labels,
    state_fidelity,
)

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
XX_GATE = (np.eye(4) + 1j * np.kron(X, X)) / math.sqrt(2)
YX_GATE = (np.eye(4) - 1j * np.kron(Y, X)) / math.sqrt(2)


def test_labels_lexicographic():
    assert pauli_labels(1) == ("I", "X", "Y", "Z")
    assert pauli_labels(2)[:5] == ("II", "IX", "IY", "IZ", "XI")


def test_identity_coefficients():
    assert np.allclose(pauli_coefficients(np.eye(2)), [1, 0, 0, 0])


def test_xx_gate_coefficients():
    c = dict(zip(pauli_labels(2), pauli_coefficients(XX_GATE)))
    assert c["II"] == pytest.approx(1 / math.sqrt(2))
    assert c["XX"] == pytest.approx(1j / math.sqrt(2))
    assert all(abs(v) < 1e-12 for k, v in c.items() if k not in ("II", "XX"))


def test_yx_gate_coefficients():
    c = dict(zip(pauli_labels(2), pauli_coefficients(YX_GATE)))
    assert c["II"] == pytest.approx(1 / math.sqrt(2))
    assert c["YX"] == pytest.approx(-1j / math.sqrt(2))


def test_coefficients_normalised():
    rng = np.random.default_rng(31)
    h = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    u = np.linalg.qr(h)[0]
    assert np.sum(np.abs(pauli_coefficients(u)) ** 2) == pytest.approx(1.0)


def test_rejects_non_unitary():
    with pytest.raises(ValueError, match="not unitary"):
        pauli_coefficients(np.diag([1.0, 0.5]))


def test_rejects_too_many_qubits():
    with pytest.raises(ValueError):
        pauli_coefficients(np.eye(16))


def test_chi_identity():
    chi = chi_from_unitary(np.eye(2))
    assert chi.entry("I", "I") == pytest.approx(1.0)
    assert np.max(np.abs(chi.matrix - np.diag([1, 0, 0, 0]))) < 1e-14


def test_chi_xx_gate_entries():
    chi = chi_from_unitary(XX_GATE)
    assert chi.entry("II", "II") == pytest.approx(0.5)
    assert chi.entry("XX", "XX") == pytest.approx(0.5)
    assert chi.entry("XX", "II") == pytest.approx(0.5j)
    assert chi.entry("II", "XX") == pytest.approx(-0.5j)


def test_chi_structure():
    chi = chi_from_unitary(YX_GATE)
    m = chi.matrix
    assert np.max(np.abs(m - m.conj().T)) < 1e-14
    assert chi.trace() == pytest.approx(1.0)
    vals = np.linalg.eigvalsh(m)
    assert vals.min() > -1e-12
    assert sum(v > 1e-12 for v in vals) == 1   # rank one


def test_chi_global_phase_invariant():
    chi1 = chi_from_unitary(XX_GATE)
    chi2 = chi_from_unitary(cmath.exp(0.7j) * XX_GATE)
    assert np.max(np.abs(chi1.matrix - chi2.matrix)) < 1e-12


def test_density_matrix_basis_state():
    rho = density_matrix(np.eye(8)[0])
    assert rho[0, 0] == 1
    assert np.count_nonzero(rho) == 1


def test_density_matrix_superposition_structure():
    state = np.zeros(8, dtype=complex)
    state[0] = 1 / math.sqrt(2)       # |000>
    state[6] = 1j / math.sqrt(2)      # i|110>
    rho = density_matrix(state)
    assert rho[0, 0] == pytest.approx(0.5)
    assert rho[6, 6] == pytest.approx(0.5)
    assert rho[6, 0] == pytest.approx(0.5j)    # imaginary off-diagonal
    assert rho[0, 6] == pytest.approx(-0.5j)
    assert np.trace(rho) == pytest.approx(1.0)


def test_density_rejects_unnormalised():
    with pytest.raises(ValueError):
        density_matrix(np.ones(4))


def test_simulated_far_exchange_state_fidelity():
    # one anticlockwise far exchange sends |000> to (|000> + |011>)/sqrt2
    from mjones import spin_sim

    final = spin_sim.braid_sequence("s2^-1", spin_sim.prepare_logical(0))
    logical = spin_sim.logical_encode(spin_sim.ground_basis().coefficients(final))
    target = np.zeros(8, dtype=complex)
    target[0] = target[3] = 1 / math.sqrt(2)
    rho = density_matrix(logical)
    assert state_fidelity(rho, target) == pytest.approx(1.0, abs=1e-10)


def test_matrix_to_json():
    out = matrix_to_json(np.array([[1, 1j], [0, -1]]), labels=("I", "X"))
    assert out["labels"] == ["I", "X"]
    assert out["entries"][0][1] == [0.0, 1.0]
    assert out["entries"][1][1] == [-1.0, 0.0]
