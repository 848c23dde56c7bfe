"""Pauli-string algebra and the state-vector kernels."""

import numpy as np
import pytest

from mjones.pauli import PauliTerm, apply_pauli, commuting_spectrum, dense_sum, string_action

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
    x1 = PauliTerm(1.0, {1: "x"})
    y1 = PauliTerm(1.0, {1: "y"})
    z1 = PauliTerm(1.0, {1: "z"})
    assert (x1 * y1).coefficient == 1j and (x1 * y1).factors == {1: "z"}
    assert (y1 * x1).coefficient == -1j
    assert (x1 * x1).factors == {}
    assert (z1 * y1).coefficient == -1j and (z1 * y1).factors == {1: "x"}
    assert (PauliTerm(2.0, {1: "x"}) * PauliTerm(1j, {2: "z"})) == PauliTerm(2j, {1: "x", 2: "z"})


def test_string_product_matches_matrices():
    rng = np.random.default_rng(1)
    n = 3
    for _ in range(30):
        f1 = {s: rng.choice(list("xyz")) for s in rng.choice([1, 2, 3], size=rng.integers(0, 4), replace=False)}
        f2 = {s: rng.choice(list("xyz")) for s in rng.choice([1, 2, 3], size=rng.integers(0, 4), replace=False)}
        s1 = PauliTerm(1.0, f1)
        s2 = PauliTerm(1.0, f2)
        lhs = kron_term(s1, n) @ kron_term(s2, n)
        assert np.allclose(lhs, kron_term(s1 * s2, n))


def test_apply_pauli_matches_dense():
    rng = np.random.default_rng(2)
    n = 4
    for _ in range(20):
        sites = rng.choice(np.arange(1, n + 1), size=rng.integers(0, n + 1), replace=False)
        factors = {int(s): rng.choice(list("xyz")) for s in sites}
        term = PauliTerm(float(rng.normal()), factors)
        state = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        assert np.allclose(apply_pauli(term, state, n), kron_term(term, n) @ state)


def test_string_action_is_the_gather_apply_pauli_does():
    term = PauliTerm(0.5j, {1: "y", 3: "z"})
    state = np.arange(8) + 1j * np.arange(8, 0, -1)
    src, coeff = string_action(term, 3)
    assert np.array_equal(coeff * state[src], apply_pauli(term, state, 3))
    assert np.allclose(coeff * state[src], kron_term(term, 3) @ state)
    with pytest.raises(ValueError, match="shape"):
        apply_pauli(term, state, 4)


def test_dense_sum():
    terms = [PauliTerm(-1.0, {1: "x", 2: "x"}), PauliTerm(1.0, {3: "z"})]
    expected = kron_term(terms[0], 3) + kron_term(terms[1], 3)
    assert np.allclose(dense_sum(terms, 3), expected)
    term = PauliTerm(-1.0, {5: "y", 6: "z", 7: "x"})
    assert np.allclose(dense_sum([term], 7), kron_term(term, 7))


def independent(terms, n) -> bool:
    # no product of a non-empty subset of the words is the identity
    strings = [PauliTerm(1.0, t.factors) for t in terms]
    for mask in range(1, 1 << len(strings)):
        prod = PauliTerm(1.0)
        for i, string in enumerate(strings):
            if mask >> i & 1:
                prod = prod * string
        if not prod.factors:
            return False
    return True


def test_commuting_spectrum_matches_eigvalsh():
    rng = np.random.default_rng(3)
    for trial in range(40):
        n = int(rng.integers(2, 6))
        terms = []
        for _ in range(30):
            factors = {s: str(rng.choice(list("xyz"))) for s in range(1, n + 1)
                       if rng.random() < 0.6}
            cand = PauliTerm(float(rng.normal()), factors)
            if factors and all(cand.commutes_with(t) for t in terms) \
                    and independent(terms + [cand], n):
                terms.append(cand)
        exact = commuting_spectrum(terms, n)
        dense = np.linalg.eigvalsh(dense_sum(terms, n))
        assert exact.shape == (1 << n,)
        assert np.max(np.abs(exact - dense)) < 1e-12


@pytest.mark.parametrize("terms", [
    [PauliTerm(1.0, {1: "x"}), PauliTerm(1.0, {1: "z"})],
    [PauliTerm(1.0, {1: "x", 2: "x"}), PauliTerm(0.5, {2: "z"})],
])
def test_commuting_spectrum_rejects_non_commuting_terms(terms):
    with pytest.raises(ValueError, match="do not commute"):
        commuting_spectrum(terms, 2)


@pytest.mark.parametrize("terms", [
    # y1y2 = -x1x2 z1z2
    [PauliTerm(1.0, {1: "x", 2: "x"}), PauliTerm(1.0, {1: "z", 2: "z"}),
     PauliTerm(1.0, {1: "y", 2: "y"})],
    [PauliTerm(1.0, {1: "z"}), PauliTerm(-2.0, {1: "z"})],
    [PauliTerm(1.0, {})],
])
def test_commuting_spectrum_rejects_dependent_terms(terms):
    with pytest.raises(ValueError, match="product of the other terms"):
        commuting_spectrum(terms, 2)


def test_commuting_spectrum_rejects_complex_coefficient():
    # a term with an imaginary coefficient is not Hermitian; -1+0j is fine
    with pytest.raises(ValueError, match="complex coefficient"):
        commuting_spectrum([PauliTerm(1j, {1: "x"})], 2)
    assert list(commuting_spectrum([PauliTerm(-1 + 0j, {1: "x"})], 1)) == [-1.0, 1.0]
