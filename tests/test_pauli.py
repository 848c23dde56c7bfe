"""Pauli-string algebra and the state-vector kernels."""

import numpy as np
import pytest

from mjones.pauli import (
    CERTAIN,
    CONTRADICTED,
    RANDOM,
    PauliTerm,
    StabilizerState,
    anticommute,
    apply_pauli,
    commuting_spectrum,
    dense_sum,
    pauli_word,
    string_action,
    word_product,
)

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
    phased = 0   # products with two or more sites whose factor product is +-i
    for n in (3, 5):
        for _ in range(60):
            s1, s2 = (PauliTerm(rng.choice([1.0, 2.0, 1j, -1j]),
                                {s: rng.choice(list("xyz")) for s in rng.choice(
                                    np.arange(1, n + 1), size=rng.integers(0, n + 1),
                                    replace=False)})
                      for _ in range(2))
            m1, m2 = kron_term(s1, n), kron_term(s2, n)
            assert np.allclose(m1 @ m2, kron_term(s1 * s2, n))
            assert s1.commutes_with(s2) == np.allclose(m1 @ m2, m2 @ m1)
            phased += sum(1 for s, a in s1.factors.items()
                          if s in s2.factors and s2.factors[s] != a) >= 2
    assert phased >= 20


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


def test_string_action_is_built_once_per_term_and_size():
    term = PauliTerm(-1.0, {2: "x", 3: "y"})
    src, coeff = string_action(term, 4)
    again = string_action(term, 4)
    assert again[0] is src and again[1] is coeff
    assert string_action(term, 5)[1] is not coeff
    for array in (src, coeff):
        with pytest.raises(ValueError):
            array[0] = 0


def fresh_action(term: PauliTerm, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(source, (c * i^#Y) * signs) derived bit by bit, without the kernel."""
    flip = sum(1 << (n - s) for s, a in term.factors.items() if a in "xy")
    phase = sum(1 << (n - s) for s, a in term.factors.items() if a in "yz")
    ycount = sum(a == "y" for a in term.factors.values())
    src = np.array([k ^ flip for k in range(1 << n)])
    signs = np.array([-1.0 if bin(j & phase).count("1") % 2 else 1.0 for j in src])
    return src, (term.coefficient * 1j ** ycount) * signs


def test_cached_string_action_equals_a_fresh_build():
    rng = np.random.default_rng(5)
    for _ in range(40):
        n = int(rng.integers(1, 7))
        sites = rng.choice(np.arange(1, n + 1), size=rng.integers(0, n + 1), replace=False)
        factors = {int(s): str(rng.choice(list("xyyz"))) for s in sites}
        term = PauliTerm(complex(rng.normal(), rng.normal()), factors)
        for _ in range(2):      # the build, then the kept arrays
            src, coeff = string_action(term, n)
            want_src, want_coeff = fresh_action(term, n)
            assert np.array_equal(src, want_src)
            assert coeff.tobytes() == want_coeff.tobytes()


def test_equal_terms_keep_their_own_kernels():
    a = PauliTerm(1.5 - 2j, {1: "y", 3: "x"})
    b = PauliTerm(1.5 - 2j, {1: "y", 3: "x"})
    string_action(a, 3)
    assert a == b and repr(a) == repr(b)
    assert "_actions" not in repr(a)
    assert all(np.array_equal(x, y) for x, y in zip(string_action(a, 3), string_action(b, 3)))
    # equal coefficients whose zeros differ in sign keep their own signed zeros
    plus, minus = PauliTerm(complex(0.0, 1), {1: "z"}), PauliTerm(complex(-0.0, 1), {1: "z"})
    assert plus == minus
    assert string_action(plus, 1)[1].tobytes() != string_action(minus, 1)[1].tobytes()


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


# --- the stabilizer tableau -----------------------------------------------------

def term_of(word, n: int) -> PauliTerm:
    """The PauliTerm of an (x, z, r) word: each Y carries a factor i."""
    x, z, r = word
    factors = {}
    for site in range(1, n + 1):
        bit = 1 << (n - site)
        if x & bit:
            factors[site] = "y" if z & bit else "x"
        elif z & bit:
            factors[site] = "z"
    ycount = sum(axis == "y" for axis in factors.values())
    return PauliTerm(1j ** ((r - ycount) % 4), factors)


def random_word(rng, n: int, hermitian: bool = False):
    x, z = int(rng.integers(1 << n)), int(rng.integers(1 << n))
    r = int(rng.integers(4))
    if hermitian:   # i^r X^x Z^z is Hermitian iff r and |x & z| have equal parity
        r = (r & 2) | ((x & z).bit_count() & 1)
    return x, z, r


def random_vector(rng, n: int) -> np.ndarray:
    return rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)


def test_pauli_word_is_the_operator_apply_pauli_applies():
    rng = np.random.default_rng(11)
    n = 3
    v = random_vector(rng, n)
    for coefficient in (1, -1, 1j, -1j):
        for factors in ({}, {1: "y"}, {1: "x", 2: "y", 3: "z"}, {2: "y", 3: "y"}):
            term = PauliTerm(coefficient, factors)
            word = pauli_word(term, n)
            assert np.allclose(apply_pauli(term_of(word, n), v, n), apply_pauli(term, v, n))
    with pytest.raises(ValueError, match="power of i"):
        pauli_word(PauliTerm(0.5, {1: "x"}), n)


def test_word_product_and_anticommutation_match_the_state_vector():
    rng = np.random.default_rng(12)
    n = 3
    for _ in range(200):
        a, b = random_word(rng, n), random_word(rng, n)
        v = random_vector(rng, n)
        ab_v = apply_pauli(term_of(a, n), apply_pauli(term_of(b, n), v, n), n)
        ba_v = apply_pauli(term_of(b, n), apply_pauli(term_of(a, n), v, n), n)
        assert np.allclose(apply_pauli(term_of(word_product(a, b), n), v, n), ab_v)
        assert np.allclose(ab_v, -ba_v if anticommute(a, b) else ba_v)
    # the phases of Y: X Y = i Z and Y X = -i Z
    x1, y1 = pauli_word(PauliTerm(1, {1: "x"}), 1), pauli_word(PauliTerm(1, {1: "y"}), 1)
    assert word_product(x1, y1) == pauli_word(PauliTerm(1j, {1: "z"}), 1)
    assert word_product(y1, x1) == pauli_word(PauliTerm(-1j, {1: "z"}), 1)


def test_tableau_tracks_random_stabilizer_states():
    rng = np.random.default_rng(13)
    n = 4
    seen = set()
    for _ in range(30):
        state = StabilizerState.from_generators(
            [(0, 1 << k, 0) for k in range(n)], n)      # Z on every site: |0000>
        v = np.zeros(1 << n, dtype=complex)
        v[0] = 1.0
        for _ in range(12):
            word = random_word(rng, n, hermitian=True)
            wv = apply_pauli(term_of(word, n), v, n)
            if rng.random() < 0.2:   # conjugation by a Pauli word applies it
                state.conjugate(word)
                v = wv
            else:
                outcome = state.measure(word)
                seen.add(outcome)
                expectation = np.vdot(v, wv).real
                assert expectation == pytest.approx(
                    {RANDOM: 0.0, CERTAIN: 1.0, CONTRADICTED: -1.0}[outcome], abs=1e-12)
                if outcome == RANDOM:   # projected onto the +1 eigenspace
                    v = (v + wv) / np.sqrt(2.0)
            for i, s in enumerate(state.stabilizers):
                assert np.allclose(apply_pauli(term_of(s, n), v, n), v)
                assert [anticommute(d, s) for d in state.destabilizers] == [
                    j == i for j in range(n)]
    assert seen == {RANDOM, CERTAIN, CONTRADICTED}


def test_copy_is_independent():
    state = StabilizerState.from_generators([(0, 1, 0), (0, 2, 0)], 2)
    twin = state.copy()
    assert twin.measure((1, 0, 0)) == RANDOM
    assert state.measure((0, 1, 0)) == CERTAIN


@pytest.mark.parametrize("words, message", [
    ([(0, 1, 0)], "1 generators for 2 qubits"),
    ([(0, 1, 0), (2, 2, 0)], "not Hermitian"),
    ([(0, 1, 0), (1, 0, 0)], "anticommutes"),
    ([(0, 1, 0), (0, 1, 2)], "product of the others"),
])
def test_tableau_rejects_bad_generators(words, message):
    with pytest.raises(ValueError, match=message):
        StabilizerState.from_generators(words, 2)
