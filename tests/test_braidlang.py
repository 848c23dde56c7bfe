"""Braid parsing, closure invariants, and the Seifert-form sign of V(i)."""

import ast
import dataclasses
import itertools
import math
import pathlib
import random
import re
import sys
import types
from dataclasses import dataclass

import pytest

import mjones
from mjones import anyon_core, braidlang, kauffman_oracle, seifert
from mjones.braidlang import (
    MAX_STRANDS,
    BraidSyntaxError,
    BraidWord,
    CapacityError,
    GaussSum,
    LinkInvariants,
    arf_invariant,
    format_braid,
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


@pytest.mark.parametrize("text, message", [
    ("s1 s2^-1 " * 500 + "s1 sX s1 sX", "token 1002: malformed braid token 'sX'"),
    ("s1 -1 1 " * 400 + "s0 s1", "token 1201: generator index 0 is not allowed"),
    ("s2^-1 " * 999 + "-0", "token 1000: generator index 0 is not allowed"),
    ("strands=3 " + "s1 -2 " * 500 + "s1 s3^-1 s2 3 s4",
     "token 1003: generator s3 out of range for 3 strands"),
    ("strands=3 " + "2 " * 999 + "-3", "token 1001: generator s3 out of range for 3 strands"),
    ("strands=2 " + "s1 " * 998 + "s1^-1 s2 s2",
     "token 1001: generator s2 out of range for 2 strands"),
])
def test_parse_error_after_many_repeated_tokens(text, message):
    # each distinct token is matched once; a bad one still reports its
    # first position, counted with the strands= prefix
    with pytest.raises(BraidSyntaxError) as exc:
        parse_braid(text)
    assert str(exc.value) == message


def test_parse_long_random_words():
    rng = random.Random(11)
    forms = (lambda k: f"s{k}", lambda k: f"s{k}^-1", str, lambda k: f"-{k}")
    for _ in range(20):
        strands = rng.randint(2, 7)
        letters, tokens = [], []
        for _ in range(1000):
            k, form = rng.randint(1, strands - 1), rng.randrange(4)
            letters.append(-k if form % 2 else k)
            tokens.append(forms[form](k))
        text = " ".join(tokens)
        padded = rng.randint(strands, strands + 3)
        assert parse_braid(f"strands={padded} {text}") == BraidWord(padded, tuple(letters))
        top = max(abs(g) for g in letters)
        assert parse_braid(text) == BraidWord(top + 1, tuple(letters))


def test_format_canonical():
    assert format_braid(FIG8) == "s1 s2^-1 s1 s2^-1"
    assert format_braid(BraidWord(4, (1, 1))) == "strands=4 s1 s1"
    assert format_braid(BraidWord(3, ())) == "strands=3"


def _format_by_letter(word):
    """The reference printed form, built token by token."""
    toks = [f"s{abs(g)}" + ("^-1" if g < 0 else "") for g in word.letters]
    if word.strands != 1 + word.max_generator():
        toks.insert(0, f"strands={word.strands}")
    return " ".join(toks)


def test_format_matches_the_per_letter_reference():
    rng = random.Random(29)
    for _ in range(1000):
        strands = rng.randint(2, 12)
        letters = tuple(rng.choice([-1, 1]) * rng.randint(1, strands - 1)
                        for _ in range(rng.randint(0, 600)))
        for word in (BraidWord(strands, letters), BraidWord(strands + rng.randint(1, 3), letters)):
            assert format_braid(word) == _format_by_letter(word)
    # up to 2048 strands, the end columns +-1 and +-(n - 1) always in use,
    # in words both shorter and longer than their top column
    for strands in (2, 3, 2048, *(rng.randint(4, 2047) for _ in range(60))):
        ends = (1, -1, strands - 1, 1 - strands)
        letters = ends + tuple(rng.choice(ends) if rng.random() < 0.5
                               else rng.choice([-1, 1]) * rng.randint(1, strands - 1)
                               for _ in range(rng.randint(0, 2 * strands)))
        letters = tuple(rng.sample(letters, len(letters)))
        for word in (BraidWord(strands, letters), BraidWord(strands + rng.randint(1, 3), letters)):
            assert format_braid(word) == _format_by_letter(word)
    # a sparse word on 10^12 strands
    word = BraidWord(10 ** 12 + 1, (10 ** 12, -10 ** 12, 1))
    assert format_braid(word) == str(word) == _format_by_letter(word)


def _parse_by_token(text):
    """The reference parse, token by token: the word, or the message of the
    first malformed or zero token, else of the first one out of range."""
    tokens = text.split()
    strands, start = None, 0
    if tokens and (m := re.fullmatch(r"strands=(\d+)", tokens[0])):
        strands, start = int(m[1]), 1
    letters = []
    for pos, tok in enumerate(tokens[start:], start=start + 1):
        m = re.fullmatch(r"s(\d+)(\^-1)?|(-?\d+)", tok)
        if not m:
            return f"token {pos}: malformed braid token {tok!r}"
        g = int(m[3]) if m[3] else -int(m[1]) if m[2] else int(m[1])
        if g == 0:
            return f"token {pos}: generator index 0 is not allowed"
        letters.append(g)
    if strands is None:
        strands = 1 + max(map(abs, letters), default=0)
    for pos, g in enumerate(letters, start=start + 1):
        if abs(g) >= strands:
            return f"token {pos}: generator s{abs(g)} out of range for {strands} strands"
    return BraidWord(strands, tuple(letters))


def _parsed_or_message(text):
    try:
        return parse_braid(text)
    except BraidSyntaxError as exc:
        return str(exc)


def test_parse_matches_the_per_token_reference_on_two_bad_tokens():
    # distinct bad tokens are matched in set order, so every pair is placed
    # in both orders after long runs of repeats: the first bad one in the
    # text must name the error, as the per-token reference finds it
    malformed, zero, out_of_range = ("sX", "s1.5", "s2^-2"), ("s0", "-0", "0"), ("s3", "-4")
    bad = malformed + zero + out_of_range
    run = "s1 s2^-1 -1 2 " * 150
    for first, second in itertools.permutations(bad, 2):
        for prefix in ("strands=3 ", ""):
            for text in (f"{prefix}{run}{first} {run}{second} {run}",
                         f"{prefix}{run}{first} {second} {first} {run}{second}"):
                want = _parse_by_token(text)
                # without the prefix a large generator only widens the word
                if prefix or not {first, second} <= set(out_of_range):
                    assert isinstance(want, str), text[-40:]
                assert _parsed_or_message(text) == want, text[-40:]
    # three distinct kinds, every order, and the reference itself pinned
    for order in itertools.permutations(("sX", "-0", "s7")):
        text = "strands=3 " + run + " ".join(order)
        assert _parsed_or_message(text) == _parse_by_token(text)
    assert _parse_by_token("strands=3 " + run + "s7 -0 sX") == (
        "token 603: generator index 0 is not allowed")
    assert _parse_by_token("strands=3 " + run + "s7 s1") == (
        "token 602: generator s7 out of range for 3 strands")


def test_parse_builds_the_same_word_as_the_constructor():
    rng = random.Random(31)
    forms = (lambda k: f"s{k}", lambda k: f"s{k}^-1", str, lambda k: f"-{k}")
    texts = ["", "strands=4", "s1", "strands=03 -2 1", "s01 s١ s1"]
    for _ in range(60):
        strands = rng.randint(1, 9)
        tokens = [forms[rng.randrange(4)](rng.randint(1, strands - 1))
                  for _ in range(rng.randint(0, 400) if strands > 1 else 0)]
        prefix = f"strands={strands + rng.randint(0, 2)}" if rng.random() < 0.5 else ""
        texts.append(" ".join([prefix, *tokens]))
    for text in texts:
        word, want = parse_braid(text), _parse_by_token(text)
        assert word == want == BraidWord(want.strands, want.letters), text[:40]
        assert hash(word) == hash(want) and repr(word) == repr(want), text[:40]
        assert type(word.letters) is tuple
    assert [f.name for f in dataclasses.fields(BraidWord)] == ["strands", "letters"]
    # a direct call keeps its check and its message
    with pytest.raises(ValueError, match=r"letter 3 out of range for 3 strands \(need 1 <= \|g\| <= 2\)"):
        BraidWord(3, (1, 3))


@pytest.mark.parametrize("text, canonical", [
    ("s1 s2^-1  s1\ts2^-1\n\n s1   \t s2^-1 ", True),
    ("\t\ts3 s1^-1\r\n", True),
    ("strands=3 s1 s2^-1", True),       # redundant prefix
    ("strands=5 s1 s2^-1", True),       # needed prefix
    ("strands=03 s1 s2", True),
    ("strands=03 s1", True),
    ("1 s1", False),
    ("s1 -2 s2^-1", False),
    ("s01 s1", False),
    ("s١ s1", False),
    ("", True),
    ("   ", True),
    ("strands=4", True),
    ("strands=1", True),
])
def test_format_of_a_parsed_word_matches_the_per_letter_reference(text, canonical):
    word = parse_braid(text)
    assert format_braid(word) == str(word) == _format_by_letter(word)
    # canonical input keeps its re-joined tokens as the printed form
    assert (word._text is not None) == canonical


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


def test_link_invariants_hopf():
    inv = link_invariants(HOPF)
    assert inv.writhe == 2
    assert inv.components == 2
    assert inv.linking == ((0, 1, 1),)
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
    assert inv.linking == ()
    assert inv.proper


def test_link_invariants_solomon():
    inv = link_invariants(SOLOMON)
    assert inv.writhe == 4
    assert inv.components == 2
    assert inv.linking == ((0, 1, 2),)
    assert inv.proper


def test_link_invariants_empty_word():
    inv = link_invariants(BraidWord(3, ()))
    assert inv.writhe == 0
    assert inv.components == 3
    assert inv.proper


def test_link_invariants_of_the_widest_unlink():
    inv = link_invariants(BraidWord(2048, ()))
    assert inv.components == 2048
    assert inv.linking == ()
    assert inv.proper


def _link_invariants_by_matrix(word):
    """The dense m x m reference: every pair's signed crossings, halved, and
    each row's sum for properness.  It finds the closure permutation itself,
    checks that the matrix is symmetric with a zero diagonal, and returns
    the nonzero entries of its upper triangle."""
    at_pos = list(range(word.strands))
    for g in word.letters:
        k = abs(g) - 1
        at_pos[k], at_pos[k + 1] = at_pos[k + 1], at_pos[k]
    perm = {strand: pos for pos, strand in enumerate(at_pos)}
    comp_of = [-1] * word.strands
    ncomp = 0
    for s in range(word.strands):
        if comp_of[s] < 0:
            t = s
            while comp_of[t] < 0:
                comp_of[t] = ncomp
                t = perm[t]
            ncomp += 1
    crossing_sum = [[0] * ncomp for _ in range(ncomp)]
    at_pos = list(range(word.strands))
    for g in word.letters:
        k = abs(g) - 1
        ca, cb = comp_of[at_pos[k]], comp_of[at_pos[k + 1]]
        if ca != cb:
            crossing_sum[ca][cb] += 1 if g > 0 else -1
            crossing_sum[cb][ca] += 1 if g > 0 else -1
        at_pos[k], at_pos[k + 1] = at_pos[k + 1], at_pos[k]
    assert all(total % 2 == 0 for row in crossing_sum for total in row)
    matrix = [[total // 2 for total in row] for row in crossing_sum]
    assert all(matrix[i][i] == 0 for i in range(ncomp))
    assert all(matrix[i][j] == matrix[j][i] for i in range(ncomp) for j in range(ncomp))
    proper = all(sum(matrix[i][j] for j in range(ncomp) if j != i) % 2 == 0
                 for i in range(ncomp))
    linking = tuple((i, j, matrix[i][j]) for i in range(ncomp)
                    for j in range(i + 1, ncomp) if matrix[i][j])
    return LinkInvariants(word.writhe, ncomp, linking, proper)


def test_link_invariants_match_the_matrix_reference():
    rng = random.Random(23)
    proper = 0
    for trial in range(1200):
        strands = rng.randint(2, 12)
        letters = tuple(rng.choice([-1, 1]) * rng.randint(1, strands - 1)
                        for _ in range(rng.randint(0, 80)))
        # every third word gains unknot components, as a strands= prefix pads it
        padding = rng.randint(1, 6) if trial % 3 == 0 else 0
        word = BraidWord(strands + padding, letters)
        inv = link_invariants(word)
        assert inv == _link_invariants_by_matrix(word), word
        proper += inv.proper
    assert 0 < proper < 1200     # both branches of properness are reached


def _link_invariants_by_letter(word):
    """The reference pass: the closure permutation stepped letter by letter
    on a list, each crossing's sign added under its strand pair."""
    n = word.strands
    at_pos = list(range(n))
    crossed = {}
    for g in word.letters:
        k = abs(g) - 1
        a, b = at_pos[k], at_pos[k + 1]
        at_pos[k], at_pos[k + 1] = b, a
        crossed[a * n + b] = crossed.get(a * n + b, 0) + (1 if g > 0 else -1)
    comp_of, ncomp = [-1] * n, 0
    for s in range(n):
        if comp_of[s] < 0:
            t = s
            while comp_of[t] < 0:
                comp_of[t] = ncomp
                t = at_pos[t]
            ncomp += 1
    pair_sum, total = {}, [0] * ncomp
    for key, crossings in crossed.items():
        ca, cb = comp_of[key // n], comp_of[key % n]
        if ca != cb:
            pair = (min(ca, cb), max(ca, cb))
            pair_sum[pair] = pair_sum.get(pair, 0) + crossings
            total[ca] += crossings
            total[cb] += crossings
    linking = tuple(sorted((i, j, c // 2) for (i, j), c in pair_sum.items() if c))
    return LinkInvariants(sum(crossed.values()), ncomp, linking,
                          all(t % 4 == 0 for t in total))


def test_permutation_table_equals_the_per_letter_pass():
    assert braidlang.PERMUTATION_STRANDS == 3
    rows, perms, _ = braidlang._permutation_table(3)
    assert len(set(perms)) == 6 and {len(row) for row in rows} == {5}
    # every word of at most 7 letters at 1-3 strands
    for strands in (1, 2, 3):
        alphabet = [g for k in range(1, strands) for g in (k, -k)]
        for length in range(8):
            for letters in itertools.product(alphabet, repeat=length):
                word = BraidWord(strands, letters)
                assert link_invariants(word) == _link_invariants_by_letter(word), word
    # and 200 seeded 1000-letter words at 2 and 3 strands
    rng = random.Random("permutations")
    for trial in range(200):
        word = _random_word(rng, 2 + trial % 2, 1000)
        assert link_invariants(word) == _link_invariants_by_letter(word)


def test_wider_words_step_the_permutation_letter_by_letter(monkeypatch):
    widths = []
    table = braidlang._permutation_table
    monkeypatch.setattr(braidlang, "_permutation_table",
                        lambda strands: widths.append(strands) or table(strands))
    rng = random.Random("wide")
    for strands in (3, 4, 5, 9):
        word = _random_word(rng, strands, 300)
        assert link_invariants(word) == _link_invariants_by_letter(word)
    assert widths == [3]


def test_capacity_error_is_owned_by_the_shared_layer():
    assert kauffman_oracle.CapacityError is CapacityError
    assert issubclass(CapacityError, ValueError)
    # the anyon route imports no other route
    tree = ast.parse(pathlib.Path(anyon_core.__file__).read_text())
    imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert "kauffman_oracle" not in imported and "braidlang" in imported


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
    # two loops of one column share a band; same-sign letters give q = 1:
    # G = 1 - 1 - 1 - 1 for q = x + y + xy, and 1 + 1 + 1 - 1 for q = xy
    ("s1 s1 s1", GaussSum(False, True, 0, 2, 1)),
    ("s1 s1^-1 s1", GaussSum(False, False, 0, 2, 1)),
    # interlacing loops of adjacent columns: (0, 2) and (1, 3)
    ("s1 s2 s1 s2", GaussSum(False, True, 0, 2, 1)),
    # nested loops of adjacent columns do not meet: (1, 2) inside (0, 3), and
    # the lone loop with q = 1 sums to 0
    ("s1 s2 s2^-1 s1", GaussSum(True, False, 0, 2, 1)),
    # loops of columns two apart do not meet; strands 1-2 and 3-4 are two pieces
    ("s1 s3 s1 s3", GaussSum(True, False, 0, 2, 2)),
])
def test_seifert_form_examples(text, form):
    word = parse_braid(text)
    assert lookup_arf_data(word) == form
    assert lookup_arf_data(word).value == gauss_sum(seifert_form(word))


def test_lookup_arf_data_empty_words():
    assert lookup_arf_data(BraidWord(3, ())) == GaussSum(False, False, 0, 0, 3)
    assert lookup_arf_data(BraidWord(3, ())).value == 1
    assert lookup_arf_data(BraidWord(5, ())) == GaussSum(False, False, 0, 0, 5)


def test_lookup_arf_data_padded_word():
    # spare strands are split discs: one more surface piece each, no loops
    for word in (TREFOIL, BORROMEAN, HOPF):
        base = lookup_arf_data(word)
        padded = lookup_arf_data(BraidWord(word.strands + 2, word.letters))
        assert padded == base._replace(pieces=base.pieces + 2)
        assert padded.value == base.value


# --- the reference: the whole Seifert form, then its Gauss sum ---------------

@dataclass(frozen=True)
class SeifertForm:
    """Mod-2 Seifert form q(x) = lk(x, x+) on the surface's loops in closing
    order: ``diagonal[a]`` is q of loop ``a``; bit ``b`` of ``rows[a]`` is set
    when loops ``a`` and ``b`` meet an odd number of times.  ``pieces``
    counts the surface's connected parts."""

    pieces: int
    diagonal: tuple[bool, ...]
    rows: tuple[int, ...]


def seifert_form(word):
    """Seifert form of the closure, built in one pass over the word.

    Two consecutive letters of column k, at times p < t, bound a loop with
    q = 1 iff they have the same sign.  It meets the next loop of column k
    (they share the band at t) and each loop of column k +- 1 whose time
    interval interlaces with (p, t).  Such a pair is found when its first
    loop closes: the open loop of a neighbour column then interlaces with
    (p, t) iff it opened after p.
    """
    n = word.strands
    when = [-1] * (n + 1)      # time of each column's last letter; 0 and n stay empty
    sign = [0] * (n + 1)       # that letter
    pending = [[] for _ in range(n + 1)]   # closed loops that each column's open loop meets
    diagonal, rows = [], []
    for t, g in enumerate(word.letters):
        k = abs(g)
        p = when[k]
        if p >= 0:
            a = len(rows)
            row = 0
            for b in pending[k]:
                rows[b] |= 1 << a
                row |= 1 << b
            rows.append(row)
            diagonal.append((sign[k] ^ g) >= 0)     # same sign
            pending[k] = [a]
            if when[k - 1] > p:
                pending[k - 1].append(a)
            if when[k + 1] > p:
                pending[k + 1].append(a)
        when[k], sign[k] = t, g
    # each column in use joins two discs into one surface piece
    return SeifertForm(n - sum(w >= 0 for w in when), tuple(diagonal), tuple(rows))


def gauss_sum(form):
    """G = sum over x in GF(2)^r of (-1)^q(x), exactly: 0 or +-2^k.

    The lowest remaining loop ``a`` goes with its lowest neighbour ``b``:
    summing over x_a fixes x_b, leaving a factor 2 and the term
    (q_a + L_a)(q_b + L_b), L_a and L_b the sums over their other
    neighbours.  A loop without neighbours gives 2 if its q is 0, else 0.
    The factors of 2 are counted and the sign kept apart, so G is formed
    once, at the end.
    """
    rows, diag = list(form.rows), list(form.diagonal)
    twos, negative = 0, False
    for a, row_a in enumerate(rows):
        if row_a is None:       # eliminated as a partner
            continue
        twos += 1
        if not row_a:
            if diag[a]:
                return 0
            continue
        bit_a, bit_b = 1 << a, row_a & -row_a
        b = bit_b.bit_length() - 1
        only_a, only_b = row_a ^ bit_b, rows[b] ^ bit_a
        da, db = diag[a], diag[b]
        negative ^= da and db
        rows[b] = None
        todo = only_a | only_b
        while todo:
            bit_c = todo & -todo
            todo ^= bit_c
            c = bit_c.bit_length() - 1
            in_a, in_b = only_a & bit_c != 0, only_b & bit_c != 0
            rows[c] ^= (only_b ^ bit_a if in_a else 0) ^ (only_a ^ bit_b if in_b else 0)
            diag[c] ^= (in_a and db) ^ (in_b and da) ^ (in_a and in_b)
    return -(1 << twos) if negative else 1 << twos


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
        form = seifert_form(_random_word(rng, rng.randint(2, 6), rng.randint(0, 14)))
        if len(form.rows) <= 12:
            assert gauss_sum(form) == _brute_gauss_sum(form), form


# --- the stream against the reference ----------------------------------------

def _check_stream(word):
    """lookup_arf_data equals the reference: G, so zero, the sign and the
    dropped count, and the loop and piece counts.  Returns G."""
    form = seifert_form(word)
    want = gauss_sum(form)
    data = lookup_arf_data(word)
    assert (data.loops, data.pieces) == (len(form.rows), form.pieces), word
    assert data.zero == (want == 0), word
    if want:
        assert data.negative == (want < 0), word
        assert data.dropped == 2 * (abs(want).bit_length() - 1) - data.loops, word
    assert data.value == want, word
    return want


def test_stream_equals_the_reference_gauss_sum():
    # 2400 seeded words on 2-14 strands with up to 80 letters, on the table
    # (2-3 strands) and stepped per letter (4 and up)
    rng = random.Random("gauss-sum")
    proper = 0
    for _ in range(2400):
        word = _random_word(rng, rng.randint(2, 14), rng.randint(0, 80))
        want = _check_stream(word)
        inv = link_invariants(word)
        assert (want == 0) == (not inv.proper), word
        if inv.proper:
            proper += 1
            assert arf_invariant(inv, lookup_arf_data(word)) == int(want < 0), word
    assert 400 < proper < 2000, proper


def _cancelling_word(rng, strands, length):
    """A random word followed by its inverse: the closure is the unlink of
    ``strands`` components, so G is not 0, whatever the form."""
    half = _random_word(rng, strands, length // 2).letters
    return BraidWord(strands, half + tuple(-g for g in reversed(half)))


def test_stream_equals_the_reference_on_wide_words():
    # 240 words of 16-2048 strands and up to 600 letters, half of them
    # cancelling, so that many live loops meet before G is known
    rng = random.Random("wide")
    values = []
    for i in range(240):
        strands = MAX_STRANDS if i % 8 < 2 else int(2 ** rng.uniform(4, 11))
        word = (_cancelling_word if i % 2 else _random_word)(rng, strands, rng.randint(0, 600))
        values.append(_check_stream(word))
    assert sum(v == 0 for v in values) > 40 and sum(v != 0 for v in values) > 120


@pytest.mark.parametrize("strands", [2, 3, 16, 64, 256, 2048])
def test_stream_equals_the_reference_on_torus_words(strands):
    # T(2, k) and T(3, k), their mirrors, and each padded with spare strands
    # and shifted to higher columns, so that it runs on the table and per
    # letter; and (s1 ... s_{n-1})^k on 16-2048 strands, up to k = 4 (2 at
    # 2048 strands), where many loops are live at once
    for k in range(61 if strands <= 3 else 3 if strands == 2048 else 5):
        for sign in (1, -1):
            letters = tuple(sign * g for _ in range(k) for g in range(1, strands))
            for pad, shift in ((0, 0), (2, 0), (3, 2)):
                shifted = tuple(g + shift if g > 0 else g - shift for g in letters)
                word = BraidWord(strands + pad, shifted)
                _check_stream(word)
                assert lookup_arf_data(word)._replace(pieces=0) == lookup_arf_data(
                    BraidWord(strands, letters))._replace(pieces=0), word


def test_stream_equals_the_reference_on_padded_words():
    # spare strands around a word change only the pieces
    rng = random.Random("padded")
    for _ in range(300):
        word = _random_word(rng, rng.randint(2, 6), rng.randint(0, 40))
        base = _check_stream(word)
        for pad, shift in ((1, 0), (3, 0), (3, 3)):
            letters = tuple(g + shift if g > 0 else g - shift for g in word.letters)
            padded = BraidWord(word.strands + pad, letters)
            assert _check_stream(padded) == base, padded
            assert lookup_arf_data(padded).pieces == lookup_arf_data(word).pieces + pad


@pytest.mark.parametrize("strands", range(2, seifert.TABLE_STRANDS + 1))
def test_table_equals_the_per_letter_stream(strands):
    # 1000 words of 0-300 letters, prefixes of seeded words, through fresh
    # tables filled in two orders, against the stream stepping every letter
    # with each column's last letter known
    rng = random.Random(f"table-{strands}")
    cases = []
    for _ in range(50):
        letters = _random_word(rng, strands, 300).letters
        for n in sorted({0, len(letters), *(rng.randint(0, len(letters)) for _ in range(18))}):
            word = BraidWord(strands, letters[:n])
            cases.append((word, seifert._streamed(word.strands, word.letters)))
    for order in ("as drawn", "shuffled"):
        if order == "shuffled":
            random.Random(order).shuffle(cases)
        seifert._table.cache_clear()
        table = seifert._table(strands)
        assert [table.values[table.run(word.letters)] for word, _ in cases] == [
            want for _, want in cases]


def test_memory_does_not_grow_with_the_letters():
    # known defect 5: the whole form of a 10^5-letter word took hundreds of MB
    import tracemalloc

    rng = random.Random("long")
    for strands, length in ((3, 100_000), (64, 2_000)):
        word = _random_word(rng, strands, length)
        lookup_arf_data(word)     # fills what the table needs
        tracemalloc.start()
        try:
            lookup_arf_data(word)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1e6, (strands, length, peak)


@pytest.mark.parametrize("strands", [4, 6, 16])
def test_the_per_letter_stream_holds_little_memory(strands):
    # a dead loop waits in its slot while a neighbour is live, and goes as
    # soon as it is alone or a neighbour dies: on 4,000-letter random,
    # torus and skewed words (column 1 on 96 of every 97 letters) the stream
    # peaks at 1-5 KB traced; one that never freed a pair's slots would
    # peak at 109 KB and more.  The random and skewed words cancel, so their
    # closure is the unlink: G is 2^((loops + columns used) / 2), which a
    # stream that left dead loops unsummed would miss.  tracemalloc traces
    # every allocation, so longer words only cost time
    import tracemalloc

    rng = random.Random(f"slots-{strands}")
    skewed = tuple(rng.choice([-1, 1]) * (rng.randint(2, strands - 1) if t % 97 == 96 else 1)
                   for t in range(2_000))
    unlinks = (_cancelling_word(rng, strands, 4_000).letters,
               skewed + tuple(-g for g in reversed(skewed)))
    torus = tuple(1 + t % (strands - 1) for t in range(4_000))
    for letters in (*unlinks, torus):
        tracemalloc.start()
        try:
            zero, negative, dropped = seifert._streamed(strands, letters)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not zero, letters[:20]
        if letters is not torus:
            assert (negative, dropped) == (False, len(set(map(abs, letters)))), letters[:20]
        assert peak < 32_000, (letters[:20], peak)


def test_the_filled_three_strand_table_holds_under_025_mb():
    # 417 states and 1668 transitions, each state a tuple of small ints and
    # its row a list of five slots, hold 0.075 MB.  A first fill warms what
    # the interpreter caches on first use, so the second fill's held memory
    # is the table's alone
    import tracemalloc

    def fill():
        table = seifert._table(3)
        for s, _ in enumerate(table.states):    # breadth first: grows as states are found
            for g in (1, -1, 2, -2):
                table.step(s, g)
        return table

    fill()
    seifert._table.cache_clear()
    tracemalloc.start()
    try:
        table = fill()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(table.states) == 417
    assert sum(t is not None for row in table.rows for t in row) == 1668
    assert held < 0.25e6, held


def test_arf_route_matches_bracket_oracle_on_proper_links():
    # the route and the bracket are independent; on 1000 seeded words the
    # Gauss sum vanishes exactly on the links that are not proper, and the
    # closed form equals the bracket's value elsewhere
    from mjones.kauffman_oracle import jones_at_i

    rng = random.Random(31)
    words = [parse_braid("s1"), TREFOIL, SOLOMON, FIG8, BORROMEAN, HOPF,
             BraidWord(1, ()), BraidWord(3, ()), BraidWord(3, TREFOIL.letters),
             BraidWord(4, BORROMEAN.letters)]
    words += [_random_word(rng, rng.randint(1, 8), rng.randint(0, 12)) for _ in range(1000)]
    zeros = 0
    for word in words:
        inv = link_invariants(word)
        data = lookup_arf_data(word)
        assert data.zero == (not inv.proper), word
        arf = arf_invariant(inv, data) if inv.proper else None
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
            assert jones_su2_2(word) == pytest.approx(
                jones_from_arf(inv, arf), abs=1e-9), word


# --- the package namespace ---------------------------------------------------

def test_package_names_resolve_to_the_defining_objects():
    assert len(set(mjones.__all__)) == len(mjones.__all__) == 42
    for name in mjones.__all__:
        obj = getattr(mjones, name)
        if isinstance(obj, types.ModuleType):
            assert obj is sys.modules[f"mjones.{name}"]
        elif name == "A_AT_T_I":      # a complex constant, without __module__
            assert obj is kauffman_oracle.A_AT_T_I
        else:
            assert obj.__module__.startswith("mjones.")
            assert getattr(sys.modules[obj.__module__], name) is obj, name
    from mjones import jones_at_i, jones_spin_abs, jones_su2_2, parse_braid  # as in README

    assert (parse_braid, jones_su2_2, jones_at_i, jones_spin_abs) == (
        mjones.parse_braid, mjones.jones_su2_2, mjones.jones_at_i, mjones.jones_spin_abs)


def test_package_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        mjones.no_such_name
    assert not hasattr(mjones, "no_such_name")

