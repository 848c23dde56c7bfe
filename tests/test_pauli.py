"""Pauli-string algebra and the state-vector kernels."""

import numpy as np
import pytest

from mjones.pauli import PauliString, PauliTerm, apply_pauli, dense_sum

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI = {"x": X, "y": Y, "z": Z}


def kron_term(term: PauliTerm, n: int) -> np.ndarray:
    out = np.array([[1.0 + 0j]])
    for site in range(1, n + 1):
        out = np.kron(out, PAULI[term.factors[site]] if site in term.factors else np.eye(2))
    return term.coefficient * out


def test_term_validation():
    with pytest.raises(ValueError):
        PauliTerm(1.0, {0: "x"})
    with pytest.raises(ValueError):
        PauliTerm(1.0, {1: "w"})


def test_commutes_with_overlap_parity():
    xx = PauliTerm(1.0, {1: "x", 2: "x"})
    zz = PauliTerm(1.0, {1: "z", 2: "z"})
    z1 = PauliTerm(1.0, {1: "z"})
    yzx = PauliTerm(-1.0, {5: "y", 6: "z", 7: "x"})
    xx56 = PauliTerm(-1.0, {5: "x", 6: "x"})
    assert xx.commutes_with(zz)          # two clashing sites
    assert not xx.commutes_with(z1)      # one clashing site
    assert yzx.commutes_with(xx56)       # clashes on sites 5 and 6
    assert xx.commutes_with(PauliTerm(1.0, {3: "z"}))


def test_string_products():
    x1 = PauliString(2, 1.0, {1: "x"})
    y1 = PauliString(2, 1.0, {1: "y"})
    z1 = PauliString(2, 1.0, {1: "z"})
    assert (x1 * y1).phase == 1j and (x1 * y1).factors == {1: "z"}
    assert (y1 * x1).phase == -1j
    assert (x1 * x1).factors == {}
    assert (z1 * y1).phase == -1j and (z1 * y1).factors == {1: "x"}


def test_string_product_matches_matrices():
    rng = np.random.default_rng(1)
    n = 3
    for _ in range(30):
        f1 = {s: rng.choice(list("xyz")) for s in rng.choice([1, 2, 3], size=rng.integers(0, 4), replace=False)}
        f2 = {s: rng.choice(list("xyz")) for s in rng.choice([1, 2, 3], size=rng.integers(0, 4), replace=False)}
        s1 = PauliString(n, 1.0, f1)
        s2 = PauliString(n, 1.0, f2)
        prod = s1 * s2
        lhs = kron_term(PauliTerm(1.0, f1), n) @ kron_term(PauliTerm(1.0, f2), n)
        rhs = prod.phase * kron_term(PauliTerm(1.0, prod.factors), n)
        assert np.allclose(lhs, rhs)


def test_as_term_rejects_imaginary_phase():
    s = PauliString(2, 1j, {1: "x"})
    with pytest.raises(ValueError):
        s.as_term()


def test_apply_pauli_matches_dense():
    rng = np.random.default_rng(2)
    n = 4
    for _ in range(20):
        sites = rng.choice(np.arange(1, n + 1), size=rng.integers(0, n + 1), replace=False)
        factors = {int(s): rng.choice(list("xyz")) for s in sites}
        term = PauliTerm(float(rng.normal()), factors)
        state = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        assert np.allclose(apply_pauli(term, state, n), kron_term(term, n) @ state)


def test_dense_sum():
    terms = [PauliTerm(-1.0, {1: "x", 2: "x"}), PauliTerm(1.0, {3: "z"})]
    expected = kron_term(terms[0], 3) + kron_term(terms[1], 3)
    assert np.allclose(dense_sum(terms, 3), expected)
    term = PauliTerm(-1.0, {5: "y", 6: "z", 7: "x"})
    assert np.allclose(dense_sum([term], 7), kron_term(term, 7))
