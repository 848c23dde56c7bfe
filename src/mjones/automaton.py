"""Walks over finitely many states, run as automata filled on first use.

Majorana exchanges are Clifford (Bravyi & Kitaev 2002), so the anyon and
spin walks, like the Seifert transfer, the bracket's diagrams and the
closure permutation at a fixed width, reach finitely many states.  A letter
is an int, one lookup in its state's row, a list, so no letter is hashed; a
braid letter g (s_k at k, s_k^-1 at -k) is slot g.  Imports no numpy.
"""

import threading


class Automaton:
    """The states reachable from ``start`` under ``step``, filled on first use.

    A state s is a small integer, 0 being ``start``, that keeps the object it
    was first found as, under ``key(object)``, and ``value(object)``,
    computed once.  Its row ``rows[s]`` is a list of ``slots`` entries, and a
    letter is an int that indexes it: negative letters count from the end, as
    Python's indexes do, so each valid letter of a walk must name its own
    slot.  A slot holds the state its letter leads to, or None until the
    transition (state, letter) runs ``step(object, letter)``, which returns a
    new object, once.  So ``run`` ends where stepping each letter would, if
    objects of one key step and value alike.  Threads may share it.
    """

    def __init__(self, start, key, step, slots: int, value=lambda obj: None):
        self.states, self.values, self.rows, self.ids = [], [], [], {}
        self._key, self._step, self._value, self._slots = key, step, value, slots
        self._lock = threading.Lock()   # one miss at a time adds its state
        self._add(start)

    def _add(self, obj) -> int:
        s = self.ids.setdefault(self._key(obj), len(self.states))
        if s == len(self.states):
            self.states.append(obj)
            self.values.append(self._value(obj))
            self.rows.append([None] * self._slots)
        return s

    def step(self, s: int, letter: int) -> int:
        """The state letter leads state s to, computed and kept (a miss)."""
        after = self._step(self.states[s], letter)
        with self._lock:
            self.rows[s][letter] = t = self._add(after)
        return t

    def run(self, letters) -> int:
        """The state the letters lead ``start`` to, first letter first."""
        rows, s = self.rows, 0
        for letter in letters:
            t = rows[s][letter]
            s = self.step(s, letter) if t is None else t
        return s
