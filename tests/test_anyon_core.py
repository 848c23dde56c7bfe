"""Exchange matrices, amplitudes, and Jones values of the anyon backend."""

import hashlib
import math
import random
import sys
import threading
from functools import reduce

import numpy as np
import pytest

from mjones import braidlang, kauffman_oracle, seifert, spin_sim
from mjones.anyon_core import (
    MAX_PAIRS,
    QUANTUM_DIMENSION,
    _anyon,
    _even,
    _exchanges,
    _sector_exchange,
    _slots,
    _table,
    braid_generators,
    evolve,
    jones_majorana_abs,
    jones_su2_2,
    link_to_anyon_word,
)
from mjones.automaton import Automaton
from mjones.braidlang import BraidWord, link_invariants
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
    for pairs in (1, 2, 3, 4):
        gammas = [reduce(np.kron, [z] * (j - 1) + [p] + [np.eye(2)] * (pairs - j))
                  for j in range(1, pairs + 1) for p in (x, y)]
        gens = braid_generators(pairs)
        assert len(gens) == 2 * pairs - 1
        for m, g in enumerate(gens):
            assert np.allclose(g, (np.eye(1 << pairs) + gammas[m] @ gammas[m + 1]) / math.sqrt(2))


def test_exchange_arrays_are_read_only():
    # the even-parity exchanges are cached: a caller that wrote into their
    # arrays would change every later exchange of the same pair
    for src, coeff in (_sector_exchange(1, 2, 2), _sector_exchange(5, 3, 3),
                       _sector_exchange(5, 3, 5)):
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


def _generator_letter(g):
    # the reference exchange of braid letter g: sigma_k is (a_k, a_{k+1})
    return (_anyon(g), _anyon(g + 1)) if g > 0 else (_anyon(1 - g), _anyon(-g))


def test_link_letters_are_the_per_letter_exchanges():
    # sigma_k^-1 indexes slot -k of the width's exchanges, counted from the
    # end: words that use +-1 and +-(n - 1) at 1-16 strands would show a
    # slot two letters share
    rng = random.Random("link-letters")
    for strands in range(1, 17):
        exchanges = _exchanges(strands)
        assert len(exchanges) == len(set(exchanges)) == 2 * strands * (2 * strands - 1)
        for g in range(1 - strands, strands):
            if g:
                assert exchanges[g] == _generator_letter(g), (strands, g)
        ends = sorted({1, -1, strands - 1, 1 - strands}) if strands > 1 else []
        for _ in range(20):
            letters = ends + [rng.choice([-1, 1]) * rng.randint(1, strands - 1)
                              for _ in range(rng.randint(0, 40) if ends else 0)]
            rng.shuffle(letters)
            word = BraidWord(strands, tuple(letters))
            assert link_to_anyon_word(word) == [_generator_letter(g) for g in letters]
            # each is the slot map's own key object, so evolve's lookup of
            # it is an identity match
            keys = set(map(id, _slots(strands)))
            assert all(id(ab) in keys for ab in link_to_anyon_word(word))


def test_evolve_rejects_bad_index():
    # the bad letter is refused before it reaches the table
    _table.cache_clear()
    evolve([(1, 2), (4, 3)], 2)
    table = _table(2)
    filled = (len(table.states), [list(row) for row in table.rows])
    with pytest.raises(ValueError, match=r"^exchange \(3, 5\) out of range for 2 pairs$"):
        evolve([(3, 5)], 2)
    assert (len(table.states), table.rows) == filled
    with pytest.raises(ValueError):
        evolve([(0, 1)], 3)
    with pytest.raises(ValueError):
        evolve([(2, 2)], 3)


def test_pair_count_above_the_cap_is_a_capacity_error():
    with pytest.raises(CapacityError):
        evolve([], MAX_PAIRS + 1)
    with pytest.raises(CapacityError):
        jones_su2_2(BraidWord(MAX_PAIRS + 1, (1,)))
    # refused before a per-width letter list is built: at 10^12 strands one
    # would not fit in memory
    for backend in (link_to_anyon_word, jones_su2_2, jones_majorana_abs):
        with pytest.raises(CapacityError, match=r"capped at 16 pairs, not 1000000000000$"):
            backend(BraidWord(10 ** 12, (1,)))


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


def test_a_long_word_evolves_to_its_closure_type_value():
    # nothing bounds the letters at <= TABLE_PAIRS pairs: 10^5 letters are
    # 10^5 table lookups for each of the anyon backend's two evolutions
    rng = random.Random("long-walk")
    word = BraidWord(3, tuple(rng.choice((-1, 1, -2, 2)) for _ in range(100_000)))
    inv = link_invariants(word)
    want = math.sqrt(2) ** (inv.components - 1) if inv.proper else 0.0
    value = jones_su2_2(word)
    assert abs(value) == pytest.approx(want, abs=1e-12)
    assert value.imag == 0
    assert jones_majorana_abs(word) == pytest.approx(want, abs=1e-12)


# --- evolve against a per-letter step in plain Python complex arithmetic --------

def reference_letter(state, ab, pairs):
    """One letter stepped on a list of complex in plain Python arithmetic,
    the reference for the table and for the numpy step alike.  The scale is
    complex, as numpy casts it: complex * float is mixed-mode arithmetic,
    and a float would change signed zeros."""
    sqrt_half = complex(math.sqrt(0.5))
    src, coeff = _sector_exchange(*ab, pairs)
    return [(x + c * state[s]) * sqrt_half for x, c, s in zip(state, coeff.tolist(), src.tolist())]


def reference_vacuum(pairs):
    return [1 + 0j] + [0j] * (len(_even(pairs)) - 1)


def full_bytes(state, pairs):
    """The bytes evolve returns for an even-sector state."""
    full = np.zeros(1 << pairs, dtype=complex)
    full[_even(pairs)] = state
    return full.tobytes()


def reference_prefix_bytes(letters, pairs, lengths):
    """The per-letter step's output bytes for the prefixes of given lengths."""
    state, out = reference_vacuum(pairs), {}
    for length in range(len(letters) + 1):
        if length:
            state = reference_letter(state, letters[length - 1], pairs)
        if length in lengths:
            out[length] = full_bytes(state, pairs)
    return out


def link_letters(pairs):
    return [_generator_letter(g) for g in range(1 - pairs, pairs) if g]


def all_exchanges(pairs):
    return [(a, b) for a in range(1, 2 * pairs + 1) for b in range(1, 2 * pairs + 1) if a != b]


def test_table_evolve_equals_the_per_letter_step_bitwise():
    # about 1900 words of 0-1000 letters at 1-6 pairs: up to 40 prefixes each
    # of 48 seeded 1000-letter words, link letters and arbitrary exchanges,
    # non-adjacent and reversed ones included; at 5 and 6 pairs evolve steps
    # every letter instead of running the table
    rng = random.Random("table-vs-list")
    cases = []
    for pairs in range(1, 7):
        for alphabet in (link_letters(pairs), all_exchanges(pairs)):
            for _ in range(4):
                letters = [rng.choice(alphabet) for _ in range(1000)] if alphabet else []
                lengths = sorted({0, len(letters), *(rng.randint(0, len(letters)) for _ in range(38))})
                want = reference_prefix_bytes(letters, pairs, set(lengths))
                cases += [(letters[:n], pairs, want[n]) for n in lengths]
    assert {pairs for _, pairs, _ in cases} == {1, 2, 3, 4, 5, 6}
    for order in ("as drawn", "shuffled"):
        if order == "shuffled":
            random.Random(order).shuffle(cases)
        _table.cache_clear()     # fresh tables, filled in this order
        assert [evolve(letters, pairs).tobytes() for letters, pairs, _ in cases] == [
            want for _, _, want in cases]


def reference_orbit(pairs, letters):
    """Breadth first from the vacuum with the per-letter step: the distinct
    states' bytes in the order found, and the edges between them."""
    states = [reference_vacuum(pairs)]
    keys = [full_bytes(states[0], pairs)]
    edges = {}
    for state, key in zip(states, keys):     # both grow as states are found
        for ab in letters:
            after = reference_letter(state, ab, pairs)
            edges[key, ab] = after_key = full_bytes(after, pairs)
            if after_key not in keys:
                states.append(after)
                keys.append(after_key)
    return keys, edges


@pytest.mark.parametrize("alphabet, pairs, states, transitions", [
    ("link", 1, 1, 0), ("link", 2, 11, 22), ("link", 3, 53, 212), ("link", 4, 391, 2346),
    ("all", 1, 11, 22), ("all", 2, 55, 660), ("all", 3, 495, 14850),
])
def test_the_orbit_of_the_vacuum_is_finite(alphabet, pairs, states, transitions):
    # the memory bound of the table: all 56 exchanges at 4 pairs reach 6747
    # states and 377,832 transitions, too slow to explore here
    letters = link_letters(pairs) if alphabet == "link" else all_exchanges(pairs)
    keys, edges = reference_orbit(pairs, letters)
    assert (len(keys), len(edges)) == (states, transitions)
    # the table, filled by the same search, holds the same states and edges
    _table.cache_clear()
    table = _table(pairs)
    slots = _slots(pairs)
    for s, _ in enumerate(table.states):
        for ab in letters:
            table.step(s, slots[ab])
    table_keys = [full_bytes(state, pairs) for state in table.states]
    assert table_keys == keys
    exchanges = list(slots)
    assert {(table_keys[s], exchanges[i]): table_keys[t]
            for s, row in enumerate(table.rows) for i, t in enumerate(row) if t is not None} == edges


def test_a_signed_zero_makes_a_distinct_state():
    # == would merge these two states, whose bytes differ, and a later letter
    # can tell them apart: -0.0 + -0.0 is -0.0, but 0.0 + -0.0 is 0.0.
    # Each letter here leads to its own state, kept under the anyon key
    states = [np.array([0j, 1 + 0j]), np.array([complex(-0.0, 0.0), 1 + 0j])]
    table = Automaton(np.array(reference_vacuum(2)), np.ndarray.tobytes,
                      lambda state, i: states[i], len(states))
    plus, minus = table.run([0]), table.run([1])
    assert sorted({0, plus, minus}) == [0, 1, 2]


def spin_words(rng, count, max_letters):
    """Seeded 3-strand words of 0 to max_letters letters."""
    return [BraidWord(3, tuple(rng.choice((-2, -1, 1, 2))
                               for _ in range(rng.randint(0, max_letters))))
            for _ in range(count)]


def test_a_filled_table_makes_one_lookup_per_letter(monkeypatch):
    # once every transition of the words is known, the miss path never runs,
    # on the anyon tables and on the spin walk's
    rng = random.Random("filled")
    words = [([rng.choice(all_exchanges(pairs)) for _ in range(rng.randint(0, 300))], pairs)
             for pairs in (1, 2, 3, 4) for _ in range(20)]
    walks = spin_words(rng, 40, 300)
    _table.cache_clear()
    spin_sim._walk_tables.cache_clear()
    first = [evolve(letters, pairs).tobytes() for letters, pairs in words]
    first_walks = [spin_sim.jones_spin_tableau(word).hex() for word in walks]
    first_sums = [braidlang.lookup_arf_data(word) for word in walks]

    def miss(self, s, letter):
        raise AssertionError(f"table miss at state {s}, letter {letter}")

    monkeypatch.setattr(Automaton, "step", miss)
    assert [evolve(letters, pairs).tobytes() for letters, pairs in words] == first
    assert [spin_sim.jones_spin_tableau(word).hex() for word in walks] == first_walks
    assert [braidlang.lookup_arf_data(word) for word in walks] == first_sums


def anyon_round(rng):
    # at 4 pairs under all 56 exchanges nearly every word misses
    exchanges = all_exchanges(4)
    words = [[rng.choice(exchanges) for _ in range(300)] for _ in range(8)]
    return (_table.cache_clear, lambda: _table(4), lambda letters: evolve(letters, 4).tobytes(),
            words, [reference_prefix_bytes(letters, 4, {300})[300] for letters in words], 56)


def spin_round(rng):
    # |V(i)| is sqrt(2)^(m-1) on a proper link of m components and 0 otherwise
    words = spin_words(rng, 400, 12)
    invariants = map(link_invariants, words)
    want = [2.0 ** ((inv.components - 1) / 2) if inv.proper else 0.0 for inv in invariants]
    return (spin_sim._walk_tables.cache_clear, spin_sim._walk_tables,
            spin_sim.jones_spin_tableau, words, want, 5)


def seifert_round(rng):
    # on 3 strands the Gauss sum runs on the Seifert table of column
    # functionals; the stream stepping every letter is the reference
    words = spin_words(rng, 16, 300)
    return (seifert._table.cache_clear, lambda: seifert._table(3),
            lambda word: braidlang.lookup_arf_data(word)[:3], words,
            [seifert._streamed(3, word.letters) for word in words], 5)


def bracket_round(rng):
    # 5-strand words that touch every strand run on the bracket's table of
    # 5-live-strand diagrams; the bracket before the round is the reference
    words = []
    while len(words) < 60:
        letters = tuple(rng.choice((-1, 1)) * rng.randint(1, 4) for _ in range(12))
        if len({p for g in letters for p in (abs(g) - 1, abs(g))}) == 5:
            words.append(BraidWord(5, letters))
    return (kauffman_oracle._table.cache_clear, lambda: kauffman_oracle._table(5),
            kauffman_oracle.bracket, words, [kauffman_oracle.bracket(word) for word in words], 10)


@pytest.mark.parametrize("make_round", [anyon_round, spin_round, seifert_round, bracket_round],
                         ids=["anyon", "spin", "seifert", "bracket"])
def test_threads_sharing_a_table_keep_one_state_per_id(make_round):
    # misses from several threads at once must not give two states one id
    rng = random.Random("threads")

    def run(walk, words, got, first):
        for i in range(first, len(words), 4):
            got[i] = walk(words[i])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(15):
            clear, automaton, walk, words, want, slots = make_round(rng)
            got = [None] * len(words)
            clear()
            threads = [threading.Thread(target=run, args=(walk, words, got, first))
                       for first in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
            table = automaton()
            assert sorted(table.ids.values()) == list(range(len(table.states)))
            assert len(table.values) == len(table.rows) == len(table.states)
            # a row is a list of one slot per letter, never a hashed map
            assert all(type(row) is list and len(row) == slots for row in table.rows)
            # a row may point only at a state whose own row is already there
            assert all(0 <= t < len(table.rows) for row in table.rows for t in row if t is not None)
            assert got == want
    finally:
        sys.setswitchinterval(interval)
