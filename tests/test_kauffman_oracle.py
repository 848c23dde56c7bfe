"""Exact bracket oracle against hand-computed and closed-form values, and the
Temperley-Lieb transfer against an independent 2^c state sum."""

import cmath
import math
import random

import pytest

from mjones.braidlang import BraidWord
from mjones.kauffman_oracle import (
    A_AT_T_I,
    CapacityError,
    LOOP_FACTOR,
    LaurentPolynomial,
    bracket,
    eval_at,
    jones_at_i,
    jones_polynomial,
)

UNKNOT = BraidWord(2, (1,))
HOPF = BraidWord(2, (1, 1))
TREFOIL = BraidWord(2, (1, 1, 1))
SOLOMON = BraidWord(2, (1, 1, 1, 1))
FIG8 = BraidWord(3, (1, -2, 1, -2))
BORROMEAN = BraidWord(3, (1, -2, 1, -2, 1, -2))


def P(coeffs):
    return LaurentPolynomial(coeffs)


def state_sum_bracket(word: BraidWord) -> LaurentPolynomial:
    """Reference bracket: every one of the 2^c smoothings, loops counted by
    union-find over strand segments, each state weighted A^(a-b) d^(loops-1)."""
    n, c = word.strands, word.crossings
    counts: dict[tuple[int, int], int] = {}
    for mask in range(1 << c):
        parent = list(range(n))
        cur = list(range(n))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        aexp = 0
        for i, g in enumerate(word.letters):
            sign = 1 if g > 0 else -1
            if (mask >> i) & 1:  # cap-cup smoothing joins the two segments
                aexp -= sign
                k = abs(g) - 1
                parent[find(cur[k])] = find(cur[k + 1])
                parent.append(len(parent))
                cur[k] = cur[k + 1] = len(parent) - 1
            else:
                aexp += sign
        for k in range(n):
            parent[find(cur[k])] = find(k)
        key = (aexp, len({find(x) for x in range(len(parent))}))
        counts[key] = counts.get(key, 0) + 1
    total = LaurentPolynomial.zero()
    for (aexp, loops), count in counts.items():
        total = total + (LOOP_FACTOR ** (loops - 1) * P({aexp: count}))
    return total


def random_word(rng: random.Random, max_strands: int, max_crossings: int) -> BraidWord:
    strands = rng.randint(1, max_strands)
    if strands == 1:
        return BraidWord(1, ())
    return BraidWord(strands, tuple(
        rng.choice([-1, 1]) * rng.randint(1, strands - 1)
        for _ in range(rng.randint(0, max_crossings))
    ))


class TestLaurentPolynomial:
    def test_arithmetic(self):
        a = P({0: 1, 2: 3})
        b = P({-2: 2, 2: -3})
        assert a + b == P({0: 1, -2: 2})
        assert a - b == P({0: 1, 2: 6, -2: -2})
        assert a * b == P({-2: 2, 2: -3, 0: 6, 4: -9})

    def test_zero_coefficients_dropped(self):
        assert P({3: 0, 1: 2}).coeffs == {1: 2}
        assert (P({1: 1}) - P({1: 1})) == P({})

    def test_power_and_shift(self):
        assert LOOP_FACTOR ** 2 == P({4: 1, 0: 2, -4: 1})
        assert P({1: 2}).shift(-3) == P({-2: 2})

    def test_int_comparison(self):
        assert P({0: 1}) == 1
        assert P({}) == 0
        assert P({4: 1}) != 1

    def test_printing(self):
        assert str(P({2: -1, -2: -1})) == "-1*A^-2 + -1*A^2"
        assert str(P({0: 3})) == "3*A^0"
        assert str(P({})) == "0"

    def test_eval_at(self):
        assert eval_at(P({0: 1}), 0.3 + 1j) == 1
        assert eval_at(P({2: 1, -2: 1}), 1j) == pytest.approx(-2)
        with pytest.raises(ZeroDivisionError):
            eval_at(P({-1: 1}), 0)

    def test_substitute_t(self):
        from fractions import Fraction
        assert jones_polynomial(TREFOIL).substitute_t() == {
            Fraction(1): 1, Fraction(3): 1, Fraction(4): -1
        }


class TestBracket:
    def test_empty_word_single_strand(self):
        assert bracket(BraidWord(1, ())) == 1

    def test_empty_word_two_strands(self):
        assert bracket(BraidWord(2, ())) == LOOP_FACTOR

    def test_single_positive_kink(self):
        # two smoothings: A*d + A^-1 = -A^3
        assert bracket(UNKNOT) == P({3: -1})

    def test_single_negative_kink(self):
        assert bracket(BraidWord(2, (-1,))) == P({-3: -1})

    def test_positive_hopf(self):
        assert bracket(HOPF) == P({4: -1, -4: -1})

    def test_transfer_matches_state_sum(self):
        rng = random.Random(11)
        for _ in range(500):
            word = random_word(rng, 7, 12)
            assert bracket(word).coeffs == state_sum_bracket(word).coeffs, word

    def test_reference_state_sum_on_known_values(self):
        assert state_sum_bracket(UNKNOT) == P({3: -1})
        assert state_sum_bracket(HOPF) == P({4: -1, -4: -1})
        assert state_sum_bracket(BraidWord(3, ())) == LOOP_FACTOR ** 2

    def test_capacity_limit(self):
        with pytest.raises(CapacityError):
            bracket(BraidWord(2, (1,) * 25))

    def test_distant_strand_multiplies_by_loop_factor(self):
        rng = random.Random(3)
        for _ in range(20):
            strands = rng.randint(2, 4)
            letters = tuple(
                rng.choice([-1, 1]) * rng.randint(1, strands - 1)
                for _ in range(rng.randint(0, 6))
            )
            word = BraidWord(strands, letters)
            assert bracket(word.with_strands(strands + 1)) == bracket(word) * LOOP_FACTOR

    def test_reidemeister_two_invariance(self):
        rng = random.Random(5)
        for _ in range(60):
            strands = rng.randint(2, 4)
            base = [rng.choice([-1, 1]) * rng.randint(1, strands - 1)
                    for _ in range(rng.randint(0, 6))]
            k = rng.choice([-1, 1]) * rng.randint(1, strands - 1)
            pos = rng.randint(0, len(base))
            moved = base[:pos] + [k, -k] + base[pos:]
            assert bracket(BraidWord(strands, tuple(moved))) == \
                bracket(BraidWord(strands, tuple(base)))


class TestJonesPolynomial:
    def test_unknot_normalises_to_one_exactly(self):
        assert jones_polynomial(UNKNOT) == 1
        assert jones_polynomial(BraidWord(2, (-1,))) == 1

    def test_long_chain_closes_to_the_unknot(self):
        # s1 s2 ... s24 on 25 strands: 2^24 distinct partial diagrams unless
        # each strand is closed as soon as its last letter has been applied
        assert jones_polynomial(BraidWord(25, tuple(range(1, 25)))) == 1

    def test_positive_trefoil(self):
        # skein relation gives t + t^3 - t^4 for the all-positive closure,
        # i.e. A^-4 + A^-12 - A^-16 with t = A^-4
        assert jones_polynomial(TREFOIL) == P({-4: 1, -12: 1, -16: -1})

    def test_mirror_trefoil(self):
        assert jones_polynomial(BraidWord(2, (-1, -1, -1))) == P({4: 1, 12: 1, 16: -1})

    def test_multi_component_links_use_even_exponents(self):
        # half-integer t powers become exact A powers congruent to 2 mod 4
        poly = jones_polynomial(SOLOMON)
        assert all(e % 4 == 2 for e in poly.coeffs)

    def test_index_mirror_symmetry(self):
        for word in (FIG8, BORROMEAN, HOPF, TREFOIL, SOLOMON):
            mirrored = BraidWord(
                word.strands,
                tuple((1 if g > 0 else -1) * (word.strands - abs(g)) for g in word.letters),
            )
            assert jones_polynomial(mirrored) == jones_polynomial(word)


class TestValuesAtI:
    def test_evaluation_point(self):
        assert A_AT_T_I ** -4 == pytest.approx(1j)

    def test_golden_values(self):
        assert jones_at_i(HOPF) == pytest.approx(0, abs=1e-12)
        assert jones_at_i(TREFOIL) == pytest.approx(-1)
        assert jones_at_i(SOLOMON) == pytest.approx(-math.sqrt(2))
        assert jones_at_i(FIG8) == pytest.approx(-1)
        assert jones_at_i(BORROMEAN) == pytest.approx(-2)

    def test_unlinks(self):
        assert jones_at_i(BraidWord(2, ())) == pytest.approx(math.sqrt(2))
        assert jones_at_i(BraidWord(3, ())) == pytest.approx(2)

    def test_wide_unlinks_are_exact(self):
        # d^(n-1) has coefficients up to C(n-1, (n-1)/2); they must cancel in
        # integers, not in floating point
        for n in (30, 60, 200):
            half, odd = divmod(n - 1, 2)
            expected = math.ldexp(math.sqrt(2) if odd else 1.0, half)
            value = jones_at_i(BraidWord(n, ()))
            assert abs(value - expected) <= 1e-14 * expected

    def test_trefoil_value_branch_independent(self):
        # knots have integer t powers; every fourth root of t = i agrees
        poly = jones_polynomial(TREFOIL)
        for k in range(4):
            a = A_AT_T_I * cmath.exp(1j * k * cmath.pi / 2)
            assert eval_at(poly, a) == pytest.approx(-1)
