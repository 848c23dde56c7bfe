"""Braid parsing, closure invariants, and the Seifert-form sign of V(i)."""

import math
import random

import pytest

from mjones.braidlang import (
    MAX_STRANDS,
    BraidSyntaxError,
    BraidWord,
    LinkInvariants,
    SeifertForm,
    arf_invariant,
    closure_permutation,
    format_braid,
    gauss_sum,
    jones_from_arf,
    link_invariants,
    lookup_arf_data,
    parse_braid,
)

HOPF = BraidWord(2, (1, 1))
TREFOIL = BraidWord(2, (1, 1, 1))
SOLOMON = BraidWord(2, (1, 1, 1, 1))
FIG8 = BraidWord(3, (1, -2, 1, -2))
BORROMEAN = BraidWord(3, (1, -2, 1, -2, 1, -2))


def test_parse_plain_integers():
    word = parse_braid("1 1")
    assert word.strands == 2
    assert word.letters == (1, 1)


def test_parse_generator_tokens():
    word = parse_braid("s1 s2^-1 s1 s2^-1 s1 s2^-1")
    assert word.strands == 3
    assert word.letters == (1, -2, 1, -2, 1, -2)


def test_parse_mixed_tokens():
    assert parse_braid("s2 -1 3 s1^-1").letters == (2, -1, 3, -1)


def test_parse_strands_prefix():
    word = parse_braid("strands=4 s1 s1")
    assert word.strands == 4
    assert word.letters == (1, 1)


def test_parse_empty_word():
    assert parse_braid("").strands == 1
    assert parse_braid("strands=3").letters == ()


def test_parse_rejects_out_of_range_generator():
    with pytest.raises(BraidSyntaxError, match="token 2.*out of range"):
        parse_braid("strands=2 s3")


def test_parse_rejects_zero_and_malformed():
    with pytest.raises(BraidSyntaxError, match="token 1.*index 0"):
        parse_braid("s0")
    with pytest.raises(BraidSyntaxError, match="token 2.*malformed"):
        parse_braid("s1 sX")
    with pytest.raises(BraidSyntaxError, match="token 3"):
        parse_braid("s1 s1 1.5")


def test_format_canonical():
    assert format_braid(FIG8) == "s1 s2^-1 s1 s2^-1"
    assert format_braid(BraidWord(4, (1, 1))) == "strands=4 s1 s1"
    assert format_braid(BraidWord(3, ())) == "strands=3"


def test_parse_print_round_trip_random():
    rng = random.Random(7)
    for _ in range(200):
        strands = rng.randint(1, 6)
        length = rng.randint(0, 10)
        letters = tuple(
            rng.choice([-1, 1]) * rng.randint(1, max(1, strands - 1))
            for _ in range(length)
        ) if strands > 1 else ()
        word = BraidWord(strands, letters)
        assert parse_braid(format_braid(word)) == word


def test_braidword_validation():
    with pytest.raises(ValueError):
        BraidWord(2, (2,))
    with pytest.raises(ValueError):
        BraidWord(0, ())
    with pytest.raises(ValueError):
        BraidWord(3, (0,))


def test_closure_permutation_examples():
    assert closure_permutation(HOPF) == (0, 1)
    assert closure_permutation(TREFOIL) == (1, 0)
    # six transpositions composing to the identity
    assert closure_permutation(BORROMEAN) == (0, 1, 2)


def test_closure_permutation_ignores_signs():
    rng = random.Random(11)
    for _ in range(50):
        strands = rng.randint(2, 5)
        letters = [rng.randint(1, strands - 1) for _ in range(rng.randint(1, 8))]
        flipped = [g * rng.choice([-1, 1]) for g in letters]
        assert closure_permutation(BraidWord(strands, tuple(letters))) == \
            closure_permutation(BraidWord(strands, tuple(flipped)))


def test_link_invariants_hopf():
    inv = link_invariants(HOPF)
    assert inv.writhe == 2
    assert inv.components == 2
    assert inv.linking[0][1] == 1
    assert not inv.proper


def test_link_invariants_trefoil():
    inv = link_invariants(TREFOIL)
    assert inv.writhe == 3
    assert inv.components == 1
    assert inv.proper


def test_link_invariants_borromean():
    inv = link_invariants(BORROMEAN)
    assert inv.writhe == 0
    assert inv.components == 3
    assert all(inv.linking[i][j] == 0 for i in range(3) for j in range(3))
    assert inv.proper


def test_link_invariants_solomon():
    inv = link_invariants(SOLOMON)
    assert inv.writhe == 4
    assert inv.components == 2
    assert inv.linking[0][1] == 2
    assert inv.proper


def test_link_invariants_empty_word():
    inv = link_invariants(BraidWord(3, ()))
    assert inv.writhe == 0
    assert inv.components == 3
    assert inv.proper


def test_linking_matrix_symmetric_zero_diagonal():
    rng = random.Random(13)
    for _ in range(50):
        strands = rng.randint(2, 5)
        letters = tuple(
            rng.choice([-1, 1]) * rng.randint(1, strands - 1)
            for _ in range(rng.randint(0, 10))
        )
        inv = link_invariants(BraidWord(strands, letters))
        m = inv.linking
        assert all(m[i][i] == 0 for i in range(inv.components))
        assert all(m[i][j] == m[j][i] for i in range(inv.components) for j in range(inv.components))


def test_writhe_of_word_times_reverse_inverse_vanishes():
    rng = random.Random(17)
    for _ in range(50):
        strands = rng.randint(2, 5)
        letters = tuple(
            rng.choice([-1, 1]) * rng.randint(1, strands - 1)
            for _ in range(rng.randint(0, 8))
        )
        inverse = tuple(-g for g in reversed(letters))
        assert BraidWord(strands, letters + inverse).writhe == 0


def test_component_count_sign_invariant():
    rng = random.Random(19)
    for _ in range(50):
        strands = rng.randint(2, 5)
        letters = [rng.randint(1, strands - 1) for _ in range(rng.randint(1, 8))]
        base = link_invariants(BraidWord(strands, tuple(letters))).components
        flipped = [g * rng.choice([-1, 1]) for g in letters]
        assert link_invariants(BraidWord(strands, tuple(flipped))).components == base


def _arf(word):
    return arf_invariant(link_invariants(word), lookup_arf_data(word))


def _random_word(rng, strands, length):
    return BraidWord(strands, tuple(
        rng.choice([-1, 1]) * rng.randint(1, strands - 1) for _ in range(length)
    ) if strands > 1 else ())


def test_arf_invariant_examples():
    assert _arf(TREFOIL) == 1
    assert _arf(SOLOMON) == 1
    assert _arf(FIG8) == 1
    assert _arf(BORROMEAN) == 1
    assert _arf(parse_braid("s1")) == 0
    assert _arf(parse_braid("s1 s1 s1 s1 s1")) == 1      # cinquefoil
    assert _arf(BraidWord(4, ())) == 0


def test_arf_invariant_rejects_non_proper():
    with pytest.raises(ValueError, match="not proper"):
        arf_invariant(link_invariants(HOPF), lookup_arf_data(HOPF))


def test_arf_invariant_rejects_bad_dimensions():
    # a form whose Gauss sum cannot belong to the link is a fault, not a sign
    with pytest.raises(AssertionError, match="does not fit"):
        arf_invariant(link_invariants(SOLOMON), lookup_arf_data(TREFOIL))
    with pytest.raises(AssertionError, match="does not fit"):
        arf_invariant(link_invariants(BORROMEAN), lookup_arf_data(parse_braid("s1")))


def test_jones_from_arf_values():
    assert jones_from_arf(link_invariants(HOPF), None) == 0.0
    assert jones_from_arf(link_invariants(TREFOIL), 1) == -1.0
    assert jones_from_arf(link_invariants(BORROMEAN), 1) == -2.0
    assert jones_from_arf(link_invariants(SOLOMON), 1) == pytest.approx(-math.sqrt(2))


def test_jones_from_arf_argument_contract():
    with pytest.raises(ValueError):
        jones_from_arf(link_invariants(HOPF), 0)
    with pytest.raises(ValueError):
        jones_from_arf(link_invariants(TREFOIL), None)


def test_strand_cap_is_the_float_range_of_the_unlink_value():
    def unlink(m):
        return LinkInvariants(writhe=0, components=m, linking=(), proper=True)

    assert MAX_STRANDS == 2048
    assert math.isfinite(jones_from_arf(unlink(MAX_STRANDS), 0))
    with pytest.raises(OverflowError):
        jones_from_arf(unlink(MAX_STRANDS + 1), 0)


@pytest.mark.parametrize("text, form", [
    # two loops of one column share a band; same-sign letters give q = 1
    ("s1 s1 s1", SeifertForm(1, (True, True), (0b10, 0b01))),
    ("s1 s1^-1 s1", SeifertForm(1, (False, False), (0b10, 0b01))),
    # interlacing loops of adjacent columns: (0, 2) and (1, 3)
    ("s1 s2 s1 s2", SeifertForm(1, (True, True), (0b10, 0b01))),
    # nested loops of adjacent columns do not meet: (1, 2) inside (0, 3)
    ("s1 s2 s2^-1 s1", SeifertForm(1, (False, True), (0, 0))),
    # loops of columns two apart do not meet; strands 1-2 and 3-4 are two pieces
    ("s1 s3 s1 s3", SeifertForm(2, (True, True), (0, 0))),
])
def test_seifert_form_examples(text, form):
    assert lookup_arf_data(parse_braid(text)) == form


def test_lookup_arf_data_empty_words():
    assert lookup_arf_data(BraidWord(3, ())) == SeifertForm(3, (), ())
    assert gauss_sum(lookup_arf_data(BraidWord(3, ()))) == 1


def test_lookup_arf_data_padded_word():
    # spare strands are split discs: one more surface piece each, no loops
    for word in (TREFOIL, BORROMEAN, HOPF):
        base = lookup_arf_data(word)
        padded = lookup_arf_data(word.with_strands(word.strands + 2))
        assert (padded.diagonal, padded.rows) == (base.diagonal, base.rows)
        assert padded.pieces == base.pieces + 2
        assert gauss_sum(padded) == gauss_sum(base)


def _brute_gauss_sum(form):
    total = 0
    for x in range(1 << len(form.rows)):
        q = sum(form.diagonal[a] for a in range(len(form.rows)) if x >> a & 1)
        q += sum(bin(form.rows[a] & x >> (a + 1) << (a + 1)).count("1")
                 for a in range(len(form.rows)) if x >> a & 1)
        total += -1 if q % 2 else 1
    return total


def test_gauss_sum_matches_brute_force():
    rng = random.Random(29)
    for r in range(13):
        for density in (0.2, 0.5, 0.8):
            rows = [0] * r
            for a in range(r):
                for b in range(a + 1, r):
                    if rng.random() < density:
                        rows[a] |= 1 << b
                        rows[b] |= 1 << a
            diagonal = tuple(rng.random() < 0.5 for _ in range(r))
            form = SeifertForm(1, diagonal, tuple(rows))
            assert gauss_sum(form) == _brute_gauss_sum(form), form
    for _ in range(200):
        form = lookup_arf_data(_random_word(rng, rng.randint(2, 6), rng.randint(0, 14)))
        if len(form.rows) <= 12:
            assert gauss_sum(form) == _brute_gauss_sum(form), form


def test_arf_route_matches_bracket_oracle_on_proper_links():
    # the route and the bracket are independent; on 1000 seeded words the
    # Gauss sum vanishes exactly on the links that are not proper, and the
    # closed form equals the bracket's value elsewhere
    from mjones.kauffman_oracle import jones_at_i

    rng = random.Random(31)
    words = [parse_braid("s1"), TREFOIL, SOLOMON, FIG8, BORROMEAN, HOPF,
             BraidWord(1, ()), BraidWord(3, ()), TREFOIL.with_strands(3),
             BORROMEAN.with_strands(4)]
    words += [_random_word(rng, rng.randint(1, 8), rng.randint(0, 12)) for _ in range(1000)]
    zeros = 0
    for word in words:
        inv = link_invariants(word)
        form = lookup_arf_data(word)
        assert (gauss_sum(form) == 0) == (not inv.proper), word
        arf = arf_invariant(inv, form) if inv.proper else None
        expected = jones_at_i(word)
        zeros += expected == 0
        assert abs(jones_from_arf(inv, arf) - expected) < 1e-12 * 2 ** (inv.components / 2), word
    assert 100 < zeros < len(words) - 100


def test_arf_route_matches_anyon_backend_up_to_sixteen_strands():
    from mjones.anyon_core import jones_su2_2

    rng = random.Random(37)
    for strands in range(2, 17):
        for _ in range(3):
            word = _random_word(rng, strands, rng.randint(0, 24))
            inv = link_invariants(word)
            arf = _arf(word) if inv.proper else None
            assert jones_su2_2(word, strands).value == pytest.approx(
                jones_from_arf(inv, arf), abs=1e-9), word
