"""Every word on at most three strands: the anyon table, the spin walk and the
closure permutation searched breadth first as one product automaton.

At a fixed width both walks are finite automata, and the closure's strand
order takes finitely many values, so the search from the start state reaches
every state that any word reaches.  A check at every reached state is a check
of every word of every length at that width.  A failure names the shortest
word that reaches the failing state.
"""

import math
from collections import deque

import pytest

from mjones import anyon_core, spin_sim
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
    nxt = automaton.next.get((state, letter))
    return automaton.step(state, letter) if nxt is None else nxt


def _search(strands):
    """{(anyon id, spin id, at_pos): shortest word} over every reachable state."""
    anyon, spin = anyon_core._table(strands), spin_sim._walk_tables()
    letters = [g for k in range(1, strands) for g in (k, -k)]
    start = (0, 0, tuple(range(strands)))
    word_of = {start: ()}
    todo = deque([start])
    while todo:
        state = todo.popleft()
        a, s, at_pos = state
        for g in letters:
            k = abs(g) - 1
            order = list(at_pos)
            order[k], order[k + 1] = order[k + 1], order[k]
            after = (_move(anyon, a, anyon_core._generator_letter(g)),
                     _move(spin, s, g), tuple(order))
            if after not in word_of:
                word_of[after] = word_of[state] + (g,)
                todo.append(after)
    return anyon, spin, word_of


@pytest.mark.parametrize("strands, states, spin_states", [(2, 11, 4), (3, 53, 24)])
def test_every_word_agrees_on_the_anyon_and_spin_walks(strands, states, spin_states):
    anyon, spin, word_of = _search(strands)
    scale = math.sqrt(2.0) ** (strands - 1)
    for (a, s, at_pos), word in word_of.items():
        where = f"shortest word {format_braid(BraidWord(strands, word))!r}"
        value = scale * complex(anyon.states[a][0])
        k = spin.values[s]
        walk = 0.0 if k is None else 2.0 ** ((strands - 1 - k) / 2)
        assert abs(abs(value) - walk) <= TOL, f"|V_anyon| {abs(value)} != spin {walk}: {where}"
        assert abs(value.imag) <= TOL, f"V_anyon {value} is not real: {where}"
        closed = math.sqrt(2.0) ** (_cycles(at_pos) - 1)
        assert min(abs(value.real), abs(abs(value.real) - closed)) <= TOL, (
            f"V_anyon {value.real} is neither 0 nor +-{closed}: {where}")
    assert len(word_of) == states
    assert len({a for a, _, _ in word_of}) == states
    assert len({s for _, s, _ in word_of}) == spin_states
