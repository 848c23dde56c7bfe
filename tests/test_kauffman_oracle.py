"""Exact bracket oracle against hand-computed and closed-form values, and the
packed Temperley-Lieb transfer against two independent references: the 2^c
state sum and the transfer that keys each diagram's weights by (A-exponent,
loop count)."""

import cmath
import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mjones import anyon_core, braidlang, kauffman_oracle
from mjones.automaton import Automaton
from mjones.braidlang import (
    BraidWord,
    arf_invariant,
    jones_from_arf,
    link_invariants,
    lookup_arf_data,
    parse_braid,
)
from mjones.cli import main
from mjones.kauffman_oracle import (
    A_AT_T_I,
    TABLE_STRANDS,
    CapacityError,
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


def value_at(poly, a):
    """The polynomial at any complex point by exact integer powers; a = 0 is
    rejected when negative exponents are present."""
    if a == 0 and any(e < 0 for e in poly.coeffs):
        raise ZeroDivisionError("cannot evaluate negative exponents at A = 0")
    return sum(c * a ** e for e, c in poly.coeffs.items())


# loop factor d = -A^2 - A^-2
D = P({2: -1, -2: -1})


def power(poly: LaurentPolynomial, n: int) -> LaurentPolynomial:
    out = P({0: 1})
    for _ in range(n):
        out = out * poly
    return out


def times_loops(poly: LaurentPolynomial, m: int) -> LaurentPolynomial:
    """poly * d^m, from the binomial expansion of d^m."""
    binomials = [(-1) ** m]
    for k in range(m):
        binomials.append(binomials[-1] * (m - k) // (k + 1))
    out: dict[int, int] = {}
    for e, c in poly.coeffs.items():
        for k, b in enumerate(binomials):
            key = e + 2 * m - 4 * k
            out[key] = out.get(key, 0) + b * c
    return P(out)


def at_i_exact(poly: LaurentPolynomial) -> list[int]:
    """The value at A_AT_T_I as its integer coordinates on A^0..A^7, which
    are a basis over the rationals (A^8 = -1)."""
    folded = [0] * 8
    for e, c in poly.coeffs.items():
        folded[e % 8] += c if e % 16 < 8 else -c
    return folded


def arf_exact(components: int, arf: int | None) -> list[int]:
    """(-1)^arf sqrt(2)^(components-1) in the same coordinates, 0 for a
    link that is not proper; sqrt(2) = A^6 - A^2."""
    out = [0] * 8
    if arf is not None:
        half, odd = divmod(components - 1, 2)
        scale = -(2 ** half) if arf else 2 ** half
        if odd:
            out[6], out[2] = scale, -scale
        else:
            out[0] = scale
    return out


def in_t(poly: LaurentPolynomial) -> dict:
    """Exponents re-expressed in t = A^-4; fractional keys use Fraction."""
    return {Fraction(-e, 4): c for e, c in poly.coeffs.items()}


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
    total = P({})
    for (aexp, loops), count in counts.items():
        total = total + (power(D, loops - 1) * P({aexp: count}))
    return total


def dict_transfer_bracket(word: BraidWord) -> LaurentPolynomial:
    """Reference bracket: the Temperley-Lieb transfer with each diagram's
    state counts keyed by (A-exponent, loop count), and the loops expanded
    by Horner's rule in d only at the end."""
    n = word.strands
    last: dict[int, int] = {}
    for j, g in enumerate(word.letters):
        last[abs(g) - 1] = last[abs(g)] = j

    start = [-1] * (2 * n)
    for p in last:
        start[p], start[n + p] = n + p, p
    states = {tuple(start): {(0, n - len(last)): 1}}
    for j, g in enumerate(word.letters):
        k = abs(g) - 1
        s = 1 if g > 0 else -1
        closing = [p for p in (k, k + 1) if last[p] == j]
        nxt: dict[tuple[int, ...], dict[tuple[int, int], int]] = {}
        for diag, weights in states.items():
            for horizontal in (False, True):
                slots = list(diag)
                loops = 0
                if horizontal:
                    x, y = slots[k], slots[k + 1]
                    if x == k + 1:
                        loops += 1
                    else:
                        slots[x], slots[y] = y, x
                    slots[k], slots[k + 1] = k + 1, k
                for p in closing:
                    x, y = slots[p], slots[n + p]
                    if x == n + p:
                        loops += 1
                    else:
                        slots[x], slots[y] = y, x
                    slots[p] = slots[n + p] = -1
                da = -s if horizontal else s
                bucket = nxt.setdefault(tuple(slots), {})
                for (aexp, nloops), w in weights.items():
                    key = (aexp + da, nloops + loops)
                    bucket[key] = bucket.get(key, 0) + w
        states = nxt
    (weights,) = states.values()

    rows: dict[int, dict[int, int]] = {}
    for (aexp, nloops), w in weights.items():
        rows.setdefault(nloops - 1, {})[aexp] = w
    total: dict[int, int] = {}
    for dpow in range(max(rows), -1, -1):
        acc = dict(rows.get(dpow, {}))
        for e, coeff in total.items():
            for de, dc in D.coeffs.items():
                acc[e + de] = acc.get(e + de, 0) + dc * coeff
        total = acc
    return P(total)


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
        assert power(D, 2) == P({4: 1, 0: 2, -4: 1})
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
        assert value_at(P({0: 1}), 0.3 + 1j) == 1
        assert value_at(P({2: 1, -2: 1}), 1j) == pytest.approx(-2)
        with pytest.raises(ZeroDivisionError):
            value_at(P({-1: 1}), 0)
        # the library folds exponents mod 8 at A_AT_T_I; the plain sum agrees
        poly = P({-9: 3, -2: -1, 0: 5, 7: 2, 13: -4})
        assert eval_at(poly) == pytest.approx(value_at(poly, A_AT_T_I), abs=1e-12)

    def test_substitute_t(self):
        assert in_t(jones_polynomial(TREFOIL)) == {
            Fraction(1): 1, Fraction(3): 1, Fraction(4): -1
        }


class TestBracket:
    def test_empty_word_single_strand(self):
        assert bracket(BraidWord(1, ())) == 1

    def test_empty_word_two_strands(self):
        assert bracket(BraidWord(2, ())) == D

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
        assert state_sum_bracket(BraidWord(3, ())) == power(D, 2)

    def test_capacity_limit(self):
        # 2000 crossings on 3 strands, and 60 on 16, need 4 and over 10 times
        # the work bound
        with pytest.raises(CapacityError, match=r"2000 crossings on 3 strands exceed .* work "
                                                r"bound .* at letter \d+, with \d+ diagrams live"):
            bracket(BraidWord(3, (1, -2) * 1000))
        with pytest.raises(CapacityError, match="60 crossings on 16 strands"):
            bracket(BraidWord(16, tuple(range(1, 16)) * 4))
        # 700 crossings on 3 live of 2048 strands: the final product by
        # d^2044 alone costs several seconds, so it is refused before letter 2
        with pytest.raises(CapacityError, match="700 crossings on 2048 strands .* at letter 1,"):
            bracket(BraidWord(2048, (1, -2) * 350))

    def test_distant_strand_multiplies_by_loop_factor(self):
        rng = random.Random(3)
        for _ in range(20):
            strands = rng.randint(2, 4)
            letters = tuple(
                rng.choice([-1, 1]) * rng.randint(1, strands - 1)
                for _ in range(rng.randint(0, 6))
            )
            word = BraidWord(strands, letters)
            assert bracket(BraidWord(strands + 1, letters)) == bracket(word) * D

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

    def test_transfer_matches_dict_transfer(self):
        rng = random.Random(13)
        words = [random_word(rng, 7, 24) for _ in range(300)]
        words += [BraidWord(word.strands + rng.randint(2, 40), word.letters) for word in words[:40]]
        # past the former 24-crossing cap, up to 60 crossings on 7 strands
        rng = random.Random(17)
        words.append(BraidWord(7, tuple(rng.choice([-1, 1]) * rng.randint(1, 6)
                                        for _ in range(60))))
        for _ in range(24):
            strands = rng.randint(2, 7)
            words.append(BraidWord(strands, tuple(
                rng.choice([-1, 1]) * rng.randint(1, strands - 1)
                for _ in range(rng.randint(25, 60 if strands <= 5 else 40)))))
        # a wide word that opens many strands early and closes them late
        # (9728 diagrams at most), past 24 crossings
        wide = (-11, 5, -7, -4, -3, -10, -9, 12, -15, 6, -13, -14, -8, 5, 7, -2, -10, 4,
                -13, -11, 7, -15, -13, -3, 1, 1)
        words += [BraidWord(16, wide), BraidWord(16, wide + (2, 3, 2, 1, 3, 2))]
        # both strands close at one letter; a strand closes at its first letter
        words += [BraidWord(6, (1, 3, 5)), BraidWord(6, (-1, 3, -5, 2, -4)),
                  BraidWord(5, (4, 3, 2, 1)), BraidWord(2, (1,)), BraidWord(2, (-1, -1))]
        for word in words:
            assert bracket(word).coeffs == dict_transfer_bracket(word).coeffs, word

    def test_split_kinks_decode_binomial_coefficients(self):
        # m kinks on separate pairs: (-A^3)^m d^(m-1), coefficients up to
        # C(m-1, (m-1)/2), all carried through the transfer's own digits
        for m in (10, 40, 100):
            word = BraidWord(2 * m, tuple(range(1, 2 * m, 2)))
            assert bracket(word) == times_loops(P({3 * m: (-1) ** m}), m - 1)

    def test_every_word_of_the_former_cap_is_accepted(self):
        # two 24-crossing words with the most diagrams a search found, and
        # twelve separate pairs crossed twice (4096 diagrams at once), each
        # alone and on 2048 strands
        for strands, letters in (
            (12, (2, 9, 10, -4, -7, 8, -11, -3, 6, -1, -5, -6, 7, -2, -4, 9, 8, 10, 7, -1,
                  -5, 9, -3, 11)),
            (16, (-13, 12, 1, -4, 9, -5, -2, -6, 7, -3, 14, -8, 10, -11, 2, 9, -13, 11, 1,
                  -5, 3, -6, 8, -14)),
            (24, tuple(range(1, 24, 2)) * 2),
        ):
            word = BraidWord(strands, letters[:24])
            assert bracket(BraidWord(2048, word.letters)) == times_loops(bracket(word), 2048 - strands)


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

    def test_writhe_normalisation_equals_the_laurent_product(self):
        # (-A)^(-3w) applied coefficient by coefficient, against the general
        # product and shift, on 2000 seeded words of 1-7 strands and up to 30
        # letters; some touch only the low strands, so spare strands close
        # to split unknots
        rng = random.Random("writhe-normalisation")
        words = []
        for _ in range(2000):
            strands = rng.randint(1, 7)
            touched = rng.randint(1, strands)
            words.append(BraidWord(strands, tuple(
                rng.choice([-1, 1]) * rng.randint(1, touched - 1)
                for _ in range(rng.randint(0, 30) if touched > 1 else 0))))
        writhes = {word.writhe for word in words}
        assert any(w % 2 for w in writhes) and min(writhes) < 0 < max(writhes)
        assert any(word.letters and max(map(abs, word.letters)) < word.strands - 1
                   for word in words)
        for word in words:
            w = word.writhe
            product = (bracket(word) * P({0: -1 if w % 2 else 1})).shift(-3 * w)
            poly = jones_polynomial(word)
            assert poly == product and str(poly) == str(product), word


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

    def test_long_words_match_the_arf_route_exactly(self):
        # 100-200 crossings: V(i) from the bracket equals the Seifert-form
        # route exactly, zeros of the links that are not proper included
        rng = random.Random(23)
        proper = 0
        for _ in range(24):
            strands = rng.randint(2, 5)
            word = BraidWord(strands, tuple(rng.choice([-1, 1]) * rng.randint(1, strands - 1)
                                            for _ in range(rng.randint(100, 200))))
            inv = link_invariants(word)
            arf = arf_invariant(inv, lookup_arf_data(word)) if inv.proper else None
            proper += inv.proper
            assert at_i_exact(jones_polynomial(word)) == arf_exact(inv.components, arf), word
            assert abs(jones_at_i(word) - jones_from_arf(inv, arf)) < 1e-12 * 2 ** (inv.components / 2)
        assert 0 < proper < 24

    def test_trefoil_value_branch_independent(self):
        # knots have integer t powers; every fourth root of t = i agrees
        poly = jones_polynomial(TREFOIL)
        for k in range(4):
            a = A_AT_T_I * cmath.exp(1j * k * cmath.pi / 2)
            assert value_at(poly, a) == pytest.approx(-1)


# --- invariance on long words, as seeded hypothesis properties --------------

LONG = settings(derandomize=True, database=None, max_examples=12, deadline=None)


@st.composite
def long_words(draw):
    strands = draw(st.integers(2, 5))
    letters = st.sampled_from([s * k for k in range(1, strands) for s in (1, -1)])
    word = draw(st.lists(letters, min_size=100, max_size=140))
    return BraidWord(strands, tuple(word)), draw(letters), draw(st.integers(0, len(word)))


@LONG
@given(long_words())
def test_reidemeister_two_invariance_on_long_words(case):
    word, k, pos = case
    letters = word.letters
    moved = BraidWord(word.strands, letters[:pos] + (k, -k) + letters[pos:])
    assert bracket(moved) == bracket(word)


@LONG
@given(long_words())
def test_conjugation_invariance_on_long_words(case):
    word, k, pos = case
    letters = word.letters
    rotated = BraidWord(word.strands, letters[pos:] + letters[:pos])
    conjugated = BraidWord(word.strands, (k,) + letters + (-k,))
    expected = bracket(word)
    assert bracket(rotated) == expected
    assert bracket(conjugated) == expected


# --- the kept tables of diagrams at <= TABLE_STRANDS live strands ------------

def test_every_short_word_on_two_to_four_strands_matches_the_dict_transfer():
    count = 0
    for strands in (2, 3, 4):
        alphabet = [s * k for k in range(1, strands) for s in (1, -1)]
        for length in range(7):
            for letters in itertools.product(alphabet, repeat=length):
                word = BraidWord(strands, letters)
                assert bracket(word).coeffs == dict_transfer_bracket(word).coeffs, word
                count += 1
    assert count == 127 + 5461 + 55987


def _touching_every_strand(rng, strands, count):
    words = []
    while len(words) < count:
        letters = tuple(rng.choice((-1, 1)) * rng.randint(1, strands - 1)
                        for _ in range(rng.randint(6, 18)))
        if len({p for g in letters for p in (abs(g) - 1, abs(g))}) == strands:
            words.append(BraidWord(strands, letters))
    return words


@pytest.mark.parametrize("live", [TABLE_STRANDS, TABLE_STRANDS + 1])
def test_words_either_side_of_the_table_bound_match_the_dict_transfer(monkeypatch, live):
    widths = []
    table = kauffman_oracle._table
    monkeypatch.setattr(kauffman_oracle, "_table", lambda n: widths.append(n) or table(n))
    for word in _touching_every_strand(random.Random(f"bound {live}"), live, 500):
        assert bracket(word).coeffs == dict_transfer_bracket(word).coeffs, word
    assert set(widths) == ({live} if live <= TABLE_STRANDS else set())


def test_padded_words_use_the_table_of_their_live_width(monkeypatch):
    # the generators sit among untouched strands, up to 22 in all, so the
    # table is chosen by the live width, not by the strand count
    widths = []
    table = kauffman_oracle._table
    monkeypatch.setattr(kauffman_oracle, "_table", lambda n: widths.append(n) or table(n))
    rng = random.Random("padded")
    for top in range(1, TABLE_STRANDS):
        for _ in range(40):
            shift = rng.randint(0, 5)
            letters = tuple(rng.choice((-1, 1)) * (rng.randint(1, top) + shift) for _ in range(10))
            word = BraidWord(top + shift + rng.randint(2, 12), letters)
            live = len({p for g in letters for p in (abs(g) - 1, abs(g))})
            assert live < word.strands
            assert bracket(word).coeffs == dict_transfer_bracket(word).coeffs, word
            assert widths == [live]
            widths.clear()


def test_wider_words_never_touch_a_table(monkeypatch):
    # wider diagrams are stepped by the move that fills the tables
    widths, stepped = [], set()
    step = kauffman_oracle._diagram_step
    monkeypatch.setattr(kauffman_oracle, "_table", lambda n: widths.append(n))
    monkeypatch.setattr(kauffman_oracle, "_diagram_step",
                        lambda live, diag, slot: stepped.add(live) or step(live, diag, slot))
    rng = random.Random("wide")
    for live in (TABLE_STRANDS + 1, 9, 16):
        for word in _touching_every_strand(rng, live, 5):
            assert bracket(word).coeffs == dict_transfer_bracket(word).coeffs, word
    assert widths == []
    assert stepped == {TABLE_STRANDS + 1, 9, 16}


def test_the_filled_tables_hold_under_1_mb():
    # every diagram that a step at an open slot reaches, at 1 to 6 live
    # strands.  A first fill warms what the interpreter caches on first use,
    # so the second fill's held memory is the tables' alone
    def fill():
        tables = []
        for live in range(1, TABLE_STRANDS + 1):
            table = kauffman_oracle._table(live)
            for s, diag in enumerate(table.states):   # breadth first
                for k in range(live - 1):
                    if diag[k] >= 0 and diag[k + 1] >= 0:
                        table.step(s, k)
                for p in range(live):
                    if diag[p] >= 0:
                        table.step(s, live + p)
            tables.append(table)
        return tables

    fill()
    kauffman_oracle._table.cache_clear()
    tracemalloc.start()
    try:
        tables = fill()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [len(table.states) for table in tables] == [2, 5, 15, 53, 212, 931][:TABLE_STRANDS]
    assert held < 1e6, held


@pytest.mark.parametrize("text, value", [
    ("s1 s1 s1", -1), ("s1 s2^-1 s1 s2^-1", -1), ("s1 s2 s1 s2 s2", -math.sqrt(2)),
])
def test_the_bracket_stays_off_the_shared_automaton_run(monkeypatch, capsys, text, value):
    # a fault in Automaton.run, which the anyon, spin and Seifert routes
    # share, must not reach the bracket or the closure invariants, so a
    # comparison still catches it
    word = parse_braid(text)
    invariants = link_invariants(word)
    run = Automaton.run
    monkeypatch.setattr(Automaton, "run", lambda self, letters: run(self, list(letters)[:-1]))
    braidlang._permutation_table.cache_clear()     # refilled under the fault
    assert link_invariants(word) == invariants
    assert jones_at_i(word) == pytest.approx(value, abs=1e-12)
    assert abs(anyon_core.jones_su2_2(word) - value) > 0.4
    assert main(["jones", text, "--backend", "all"]) != 0
    capsys.readouterr()
