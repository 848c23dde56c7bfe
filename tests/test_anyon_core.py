"""Exchange matrices, amplitudes, and Jones values of the anyon backend."""

import hashlib
import math
import random

import numpy as np
import pytest

from mjones.anyon_core import (
    MAX_PAIRS,
    QUANTUM_DIMENSION,
    _exchange,
    _sector_exchange,
    braid_generators,
    evolve,
    jones_majorana_abs,
    jones_su2_2,
    link_to_anyon_word,
)
from mjones.braidlang import BraidWord
from mjones.kauffman_oracle import CapacityError, jones_at_i

HOPF = BraidWord(2, (1, 1))
TREFOIL = BraidWord(2, (1, 1, 1))
SOLOMON = BraidWord(2, (1, 1, 1, 1))
FIG8 = BraidWord(3, (1, -2, 1, -2))
BORROMEAN = BraidWord(3, (1, -2, 1, -2, 1, -2))


def random_word(rng, strands, max_letters):
    length = rng.randint(0, max_letters) if strands > 1 else 0
    return BraidWord(strands, tuple(rng.choice([-1, 1]) * rng.randint(1, strands - 1)
                                    for _ in range(length)))


def test_exchange_is_the_majorana_product_form():
    # (1 + gamma_m gamma_{m+1})/sqrt 2 with gamma_{2j-1} = Z..Z X_j and
    # gamma_{2j} = Z..Z Y_j: pins the Jordan-Wigner map and the sign convention
    x = np.array([[0, 1], [1, 0]])
    y = np.array([[0, -1j], [1j, 0]])
    z = np.diag([1, -1])
    gammas = [np.kron(x, np.eye(2)), np.kron(y, np.eye(2)), np.kron(z, x), np.kron(z, y)]
    for m, g in enumerate(braid_generators(2)):
        assert np.allclose(g, (np.eye(4) + gammas[m] @ gammas[m + 1]) / math.sqrt(2))


def test_exchange_arrays_are_read_only():
    # _exchange and its even-parity sector are cached: a caller that wrote
    # into their arrays would change every later exchange of the same pair
    for src, coeff in (_exchange(1, 2, 2), _exchange(5, 3, 3), _sector_exchange(5, 3, 5)):
        assert not src.flags.writeable and not coeff.flags.writeable
        with pytest.raises(ValueError):
            coeff[0] = 0


def test_generators_unitary():
    for pairs in (1, 2, 3, 4):
        gens = braid_generators(pairs)
        assert len(gens) == 2 * pairs - 1
        for g in gens:
            assert np.max(np.abs(g.conj().T @ g - np.eye(g.shape[0]))) < 1e-12


def test_braid_relation_and_far_commutation():
    gens = braid_generators(3)
    for a, b in zip(gens, gens[1:]):
        assert np.max(np.abs(a @ b @ a - b @ a @ b)) < 1e-12
    for m, a in enumerate(gens):
        for b in gens[m + 2:]:
            assert np.max(np.abs(a @ b - b @ a)) < 1e-12


def test_evolve_identity_and_order():
    vacuum = np.eye(4)[0]
    assert np.allclose(evolve([], 2), vacuum)
    b1, b2, b3 = braid_generators(2)
    # first letter acts first: word (1,2) (2,3) is the product B2 B1
    assert np.allclose(evolve([(1, 2), (2, 3)], 2), b2 @ b1 @ vacuum)
    # the reversed pair is the inverse exchange
    assert np.allclose(evolve([(2, 3), (3, 2)], 2), vacuum, atol=1e-12)


# sha256 over the bytes of every evolve output below, pinned when every
# amplitude was stepped on the full 2^n vector with numpy
EVOLVE_SHA256 = "bc13dea7773d65f34adc93c2a3517e2d911f1b761fd09db3d4290cf4898377ff"


def test_evolve_bytes_are_pinned():
    # seeded link words and arbitrary exchanges, non-adjacent and reversed,
    # at 1-10 pairs: both the list and the numpy stepping of the sector
    rng = random.Random(15)
    digest = hashlib.sha256()
    for pairs in range(1, 11):
        odd = [i for i in range(1 << pairs) if bin(i).count("1") % 2]
        for _ in range(12):
            word = random_word(rng, pairs, 40)
            exchanges = [tuple(rng.sample(range(1, 2 * pairs + 1), 2))
                         for _ in range(rng.randint(0, 40))]
            for letters in (link_to_anyon_word(word), exchanges):
                state = evolve(letters, pairs)
                # exactly +0.0 in both parts, not merely equal to zero
                assert state[odd].tobytes() == bytes(16 * len(odd))
                digest.update(state.tobytes())
    assert digest.hexdigest() == EVOLVE_SHA256


def test_evolve_rejects_bad_index():
    with pytest.raises(ValueError):
        evolve([(3, 5)], 2)
    with pytest.raises(ValueError):
        evolve([(0, 1)], 3)
    with pytest.raises(ValueError):
        evolve([(2, 2)], 3)


def test_pair_count_above_the_cap_is_a_capacity_error():
    with pytest.raises(CapacityError):
        evolve([], MAX_PAIRS + 1)
    with pytest.raises(CapacityError):
        jones_su2_2(BraidWord(MAX_PAIRS + 1, (1,)))


def test_vacuum_amplitudes():
    assert complex(evolve([], 3)[0]) == 1
    assert abs(complex(evolve([(2, 3)] * 2, 2)[0])) < 1e-14
    assert complex(evolve([(2, 3)] * 3, 2)[0]) == pytest.approx(-1 / math.sqrt(2))


def test_conjugated_exchange_matches_direct_form():
    # a non-adjacent exchange is an adjacent one conjugated by its neighbour:
    # (a, a+2) = B_{a+1}^-1 B_a B_{a+1}, with B_m the exchange (m, m+1)
    rng = random.Random(7)
    for a in range(1, 5):
        b, c = a + 1, a + 2
        prefix = [(m, m + 1) if rng.random() < 0.5 else (m + 1, m)
                  for m in (rng.randint(1, 5) for _ in range(12))]
        for direct, conjugated in (((a, c), [(b, c), (a, b), (c, b)]),
                                   ((c, a), [(b, c), (b, a), (c, b)])):
            assert np.max(np.abs(evolve(prefix + [direct], 3)
                                 - evolve(prefix + conjugated, 3))) < 1e-12
    # the Borromean rings with sigma_2^-1 = (5, 3) written as B4 B3 B4^-1
    b1, b2, b3, b4, b5 = braid_generators(3)
    conjugated = np.linalg.matrix_power(b4 @ b3 @ np.linalg.inv(b4) @ b2, 3)[:, 0]
    direct = evolve(link_to_anyon_word(BORROMEAN), 3)
    assert np.max(np.abs(direct - conjugated)) < 1e-12
    assert complex(conjugated[0]) == pytest.approx(-1)


def test_figure_eight_amplitude_magnitude():
    u = evolve(link_to_anyon_word(FIG8), 3)
    assert abs(complex(u[0])) == pytest.approx(0.5)


def test_amplitude_bounded_by_one():
    rng = random.Random(23)
    for _ in range(50):
        pairs = rng.randint(1, 5)
        letters = [tuple(rng.sample(range(1, 2 * pairs + 1), 2))
                   for _ in range(rng.randint(0, 10))]
        state = evolve(letters, pairs)
        assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-12)
        assert abs(complex(state[0])) <= 1 + 1e-12


def test_jones_signed_values():
    assert jones_su2_2(HOPF) == pytest.approx(0, abs=1e-12)
    assert jones_su2_2(TREFOIL) == pytest.approx(-1)
    assert jones_su2_2(SOLOMON) == pytest.approx(-math.sqrt(2))
    assert jones_su2_2(FIG8) == pytest.approx(-1)
    assert jones_su2_2(BORROMEAN) == pytest.approx(-2)


def test_jones_unknot_and_unlinks():
    assert jones_su2_2(BraidWord(2, (1,))) == pytest.approx(1)
    assert jones_su2_2(BraidWord(2, ())) == pytest.approx(math.sqrt(2))
    assert jones_su2_2(BraidWord(3, ())) == pytest.approx(2)


def test_spare_pair_scales_by_quantum_dimension():
    # an extra pair adds a split unknot: |V| gains a factor sqrt(2)
    for word in (TREFOIL, SOLOMON):
        v2 = jones_majorana_abs(word)
        v3 = jones_majorana_abs(BraidWord(3, word.letters))
        assert v3 == pytest.approx(QUANTUM_DIMENSION * v2)


def test_jones_majorana_abs_golden():
    expected = {
        HOPF: 0.0,
        TREFOIL: 1.0,
        SOLOMON: math.sqrt(2),
        FIG8: 1.0,
        BORROMEAN: 2.0,
        BraidWord(3, ()): 2.0,
    }
    for word, value in expected.items():
        assert jones_majorana_abs(word) == pytest.approx(value, abs=1e-12)


def test_jones_majorana_abs_matches_signed_magnitude():
    for word in (HOPF, TREFOIL, SOLOMON, FIG8, BORROMEAN):
        assert jones_majorana_abs(word) == pytest.approx(abs(jones_su2_2(word)), abs=1e-12)


def test_signed_agreement_with_bracket_oracle_on_random_words():
    # the two routes share conventions exactly, not just on the sample links
    rng = random.Random(99)
    for _ in range(300):
        word = random_word(rng, rng.randint(1, 8), 12)
        assert jones_su2_2(word) == pytest.approx(jones_at_i(word), abs=1e-9)


def test_markov_stabilization():
    # appending sigma_n^{+-1} on n + 1 strands leaves the closure's link type
    rng = random.Random(5)
    for _ in range(60):
        word = random_word(rng, rng.randint(1, 6), 10)
        n = word.strands
        value = jones_su2_2(word)
        for sign in (1, -1):
            stabilized = BraidWord(n + 1, word.letters + (sign * n,))
            assert jones_su2_2(stabilized) == pytest.approx(value, abs=1e-9)


def test_torus_closures_beyond_the_sample_set():
    # sigma1^m closures: odd m gives the (2,m) torus knot, even m the (2,m)
    # torus link, which is proper only when m/2 is even
    values = {5: -1.0, 6: 0.0, 7: 1.0, 8: math.sqrt(2)}
    for m, expected in values.items():
        word = BraidWord(2, (1,) * m)
        assert jones_su2_2(word) == pytest.approx(expected, abs=1e-9)
