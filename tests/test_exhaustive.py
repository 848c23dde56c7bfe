"""Every word on at most three strands, and on four for the Seifert half: the
anyon table, the spin walk, the Seifert table and the closure permutation
searched breadth first as product automata.

At a fixed width the walks and the Seifert table are finite automata, and the
closure's strand order and the columns in use take finitely many values, so
the search from the start state reaches every state that any word reaches.
A check at every reached state is a check of every word of every length at
that width.  A failure names the shortest word that reaches the failing state.
"""

import math
from collections import deque

import pytest

from mjones import anyon_core, seifert, spin_sim
from mjones.braidlang import BraidWord, format_braid

TOL = 1e-15


def _cycles(at_pos) -> int:
    seen, count = set(), 0
    for s in range(len(at_pos)):
        if s not in seen:
            count += 1
            while s not in seen:
                seen.add(s)
                s = at_pos[s]
    return count


def _move(automaton, state, letter):
    # the lookup and the miss of Automaton.run, so the search reads the
    # transitions the walks themselves read
    t = automaton.rows[state][letter]
    return automaton.step(state, letter) if t is None else t


def _search(strands, automata):
    """{(ids, at_pos, columns used): shortest word} over every reachable state
    of the automata, each of which reads braid letter g in slot g."""
    letters = [g for k in range(1, strands) for g in (k, -k)]
    start = ((0,) * len(automata), tuple(range(strands)), frozenset())
    word_of = {start: ()}
    todo = deque([start])
    while todo:
        state = todo.popleft()
        ids, at_pos, used = state
        for g in letters:
            k = abs(g) - 1
            order = list(at_pos)
            order[k], order[k + 1] = order[k + 1], order[k]
            after = (tuple(_move(automaton, s, g) for automaton, s in zip(automata, ids)),
                     tuple(order), used | {k + 1})
            if after not in word_of:
                word_of[after] = word_of[state] + (g,)
                todo.append(after)
    return word_of


def _where(strands, word):
    return f"shortest word {format_braid(BraidWord(strands, word))!r}"


@pytest.mark.parametrize("strands, states, spin_states", [(2, 11, 4), (3, 53, 24)])
def test_every_word_agrees_on_the_anyon_and_spin_walks(strands, states, spin_states):
    anyon, spin = anyon_core._table(strands), spin_sim._walk_tables()
    word_of = _search(strands, [anyon, spin])
    scale = math.sqrt(2.0) ** (strands - 1)
    for ((a, s), at_pos, _), word in word_of.items():
        where = _where(strands, word)
        value = scale * complex(anyon.states[a][0])
        k = spin.values[s]
        walk = 0.0 if k is None else 2.0 ** ((strands - 1 - k) / 2)
        assert abs(abs(value) - walk) <= TOL, f"|V_anyon| {abs(value)} != spin {walk}: {where}"
        assert abs(value.imag) <= TOL, f"V_anyon {value} is not real: {where}"
        closed = math.sqrt(2.0) ** (_cycles(at_pos) - 1)
        assert min(abs(value.real), abs(abs(value.real) - closed)) <= TOL, (
            f"V_anyon {value.real} is neither 0 nor +-{closed}: {where}")
    product = {(ids, at_pos) for ids, at_pos, _ in word_of}
    assert len(product) == states
    assert len({a for (a, _), _ in product}) == states
    assert len({s for (_, s), _ in product}) == spin_states


@pytest.mark.parametrize("strands, states, table_states, anyon_states",
                         [(2, 19, 17, 11), (3, 421, 417, 53), (4, 13239, 13233, 391)])
def test_every_word_agrees_on_the_anyon_walk_and_the_seifert_stream(
        strands, states, table_states, anyon_states):
    # V_anyon is 0 exactly where the Gauss sum is, else (-1)^arf sqrt(2)^(m-1),
    # and the elimination drops m - pieces constraints
    anyon, stream = anyon_core._table(strands), seifert._table(strands)
    word_of = _search(strands, [anyon, stream])
    scale = math.sqrt(2.0) ** (strands - 1)
    for ((a, s), at_pos, used), word in word_of.items():
        where = _where(strands, word)
        value = scale * complex(anyon.states[a][0])
        zero, negative, dropped = stream.values[s]
        m = _cycles(at_pos)
        want = 0.0 if zero else (-1) ** negative * math.sqrt(2.0) ** (m - 1)
        assert abs(value - want) <= TOL, f"V_anyon {value} != arf route {want}: {where}"
        assert zero or dropped == m - (strands - len(used)), (
            f"dropped {dropped} != {m} components - {strands - len(used)} pieces: {where}")
    assert len(word_of) == states
    assert len(stream.states) == len(stream.rows) == table_states
    assert sum(t is not None for row in stream.rows for t in row) == 2 * (strands - 1) * table_states
    assert len({a for (a, _), _, _ in word_of}) == anyon_states
