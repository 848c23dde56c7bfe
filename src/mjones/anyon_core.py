"""Ising-anyon braiding on any number of pairs, as Majorana exchanges.

n pairs of Ising anyons carry 2n Majorana modes.  The Jordan-Wigner
transformation puts them on n qubits,

    gamma_{2j-1} = Z...Z X_j,   gamma_{2j} = Z...Z Y_j,

so qubit j reads 0 exactly when anyons 2j-1 and 2j fuse to the vacuum, and
the all-vacuum fusion state is |0...0>.  Exchanging anyons a and b acts as
(1 + gamma_a gamma_b)/sqrt 2 (Ivanov 2001).  An exchange letter is the
ordered pair (a, b): since gamma_b gamma_a = -gamma_a gamma_b, the letter
(b, a) is the inverse exchange (1 - gamma_a gamma_b)/sqrt 2.  Any two
anyons, adjacent or not, are exchanged directly by the same form.

Each link strand is the worldline of one anyon: strand 1 carries anyon 2
and strand k > 1 carries anyon 2k-1.  sigma_k is the letter
(a_k, a_{k+1}) of the anyons a_k, a_{k+1} of strands k and k+1, and
sigma_k^-1 is (a_{k+1}, a_k); sigma_1 exchanges anyons 2 and 3, sigma_2
the non-adjacent anyons 3 and 5.

The Jones value at t = i of the closure of a word on n strands (n pairs) is

    V = d^(n-1) <0...0|U|0...0>,   d = sqrt(2),

with no writhe phase: in this sign convention the unknot sigma_1 comes out
exactly 1 and the sample links 0, -1, -sqrt 2, -1, -2, as the bracket
oracle gives them.  Spectator pairs are extra strands of the word that no
letter touches: each closes to a split unknot and scales V by d.  Every
exchange conserves fermion parity, so U|0...0> lies in the even-parity
sector and only its 2^(n-1) amplitudes are stepped.  Exchanges are
Clifford (Bravyi & Kitaev 2002), so the vacuum's orbit is finite, and so is
the set of doubles the steps reach from it.  At most TABLE_PAIRS pairs
those states make an ``automaton.Automaton``, filled on first use, where a
letter is the exchange's slot among the 2n(2n-1) ordered exchanges and one
index into its state's row; above that a letter costs O(2^(n-1)), and above
MAX_PAIRS the backend raises CapacityError.  Either way one numpy step,
``_step``, computes every amplitude.  ``evolve``'s letters are slots: slot
g is ``_exchanges(n)[g]``, counted from the end when negative, and link
letter g, sigma_k at k and sigma_k^-1 at -k, is slot g, as on every tabled
walk.  So a link word's own letters run on the table, and no per-letter map
hashes a signed generator (in CPython hash(-1) == hash(-2)) or an exchange
pair.  ``link_to_anyon_word`` spells out the exchanges of a link word; no
backend calls it, and it stays because the benchmark's tracer wraps it by
name.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .automaton import Automaton
from .braidlang import BraidWord, CapacityError
from .pauli import PauliTerm, _parity, dense_sum, majorana_string, string_action

QUANTUM_DIMENSION = math.sqrt(2.0)

# a 1000-letter word evolves in about 0.15 s at 16 pairs; the cost
# doubles with every further pair
MAX_PAIRS = 16

_SQRT_HALF = math.sqrt(0.5)

# registers of at most this many pairs (8 even-parity amplitudes) run on the
# automaton of _table, a letter its exchange's slot in its state's row.  At 5
# pairs and up every letter is a _step
TABLE_PAIRS = 4


def _anyon(strand: int) -> int:
    return 2 if strand == 1 else 2 * strand - 1


def _mode(anyon: int, pairs: int) -> PauliTerm:
    return majorana_string((anyon + 1) // 2, "a" if anyon % 2 else "b", pairs)


def braid_generators(pairs: int) -> tuple[np.ndarray, ...]:
    """Dense matrices of the 2*pairs - 1 adjacent exchanges (m, m+1)."""
    eye = np.eye(1 << pairs, dtype=complex)
    return tuple((eye + dense_sum([_mode(m, pairs) * _mode(m + 1, pairs)], pairs)) * _SQRT_HALF
                 for m in range(1, 2 * pairs))


@lru_cache(maxsize=None)
def _even(pairs: int) -> np.ndarray:
    """The even-parity basis states in increasing order.  States i and i ^ 1
    differ in parity, so state i sits at position i >> 1."""
    even = np.flatnonzero(_parity(np.arange(1 << pairs)) == 0)
    even.setflags(write=False)
    return even


@lru_cache(maxsize=None)
def _sector_exchange(a: int, b: int, pairs: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (source, coefficient) arrays with gamma_a gamma_b |v> =
    coefficient * v[source] on the even-parity sector, by position."""
    if a == b or not (1 <= a <= 2 * pairs and 1 <= b <= 2 * pairs):
        raise ValueError(f"exchange ({a}, {b}) out of range for {pairs} pairs")
    src, coeff = string_action(_mode(a, pairs) * _mode(b, pairs), pairs)
    even = _even(pairs)
    src, coeff = src[even] >> 1, coeff[even]
    src.setflags(write=False)
    coeff.setflags(write=False)
    return src, coeff


def _step(state: np.ndarray, kernel: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """The even-sector amplitudes after one exchange (1 + gamma_a gamma_b)/sqrt 2:
    (state + coeff * state[src]) * sqrt(1/2), computed in one new array
    (x + y and y + x round to the same double)."""
    src, coeff = kernel
    out = coeff * state[src]
    out += state
    out *= _SQRT_HALF
    return out


def _vacuum(pairs: int) -> np.ndarray:
    state = np.zeros(len(_even(pairs)), dtype=complex)
    state[0] = 1.0
    return state


@lru_cache(maxsize=None)
def _exchanges(pairs: int) -> list[tuple[int, int]]:
    """Every ordered exchange (a, b) at this pair count, in slot order, the
    order of the rows of ``_table``: link letter g's exchange is at slot g,
    sigma_k's (a_k, a_{k+1}) at k and sigma_k^-1's (a_{k+1}, a_k) at -k,
    counted from the end; the others, a before b, fill slot 0 and the slots
    between."""
    sigmas = [(_anyon(k), _anyon(k + 1)) for k in range(1, pairs)]
    inverses = [(b, a) for a, b in reversed(sigmas)]
    anyons = range(1, 2 * pairs + 1)
    others = [(a, b) for a in anyons for b in anyons if a != b and (a, b) not in sigmas + inverses]
    return [*others[:1], *sigmas, *others[1:], *inverses]


@lru_cache(maxsize=None)
def _table(pairs: int) -> Automaton:
    """evolve at this pair count as an ``automaton.Automaton`` over the
    even-sector amplitude arrays reachable from the vacuum, keyed by their
    bytes: == would merge 0.0 and -0.0, which later letters can tell apart.
    A letter is an exchange's slot in ``_exchanges``, so a row is a list of
    one entry per ordered exchange, 56 at 4 pairs, and link letter g is
    slot g.  ``_table.cache_clear()`` empties every table.  It needs no cap:
    link letters reach 1 / 11 / 53 / 391 states at 1-4 pairs, and all 56
    ordered exchanges at 4 pairs 6747 states and 377,832 transitions."""
    exchanges = _exchanges(pairs)
    return Automaton(_vacuum(pairs), np.ndarray.tobytes,
                     lambda state, i: _step(state, _sector_exchange(*exchanges[i], pairs)),
                     len(exchanges))


def evolve(letters, pairs: int) -> np.ndarray:
    """U|0...0> for a word of exchange slots, first letter first: slot g is
    the exchange ``_exchanges(pairs)[g]``, so link letter g is slot g.

    Every exchange conserves fermion parity, so only the 2^(pairs-1)
    even-parity amplitudes are stepped; the odd ones stay exactly 0j.  At
    most TABLE_PAIRS pairs the letters run on the automaton of ``_table``;
    above it each distinct slot's kernel is looked up once.  A slot outside
    the 2 * pairs * (2 * pairs - 1) exchanges raises IndexError, and no
    state or transition is kept for it."""
    _check_capacity(pairs)
    if pairs <= TABLE_PAIRS:
        table = _table(pairs)
        state = table.states[table.run(letters)]
    else:
        letters = list(letters)
        exchanges = _exchanges(pairs)
        kernels = {g: _sector_exchange(*exchanges[g], pairs) for g in dict.fromkeys(letters)}
        state = _vacuum(pairs)
        for g in letters:
            state = _step(state, kernels[g])
    full = np.zeros(1 << pairs, dtype=complex)
    full[_even(pairs)] = state
    return full


def _check_capacity(pairs: int) -> None:
    if pairs > MAX_PAIRS:
        raise CapacityError(f"anyon backend is capped at {MAX_PAIRS} pairs, not {pairs}")


def link_to_anyon_word(word: BraidWord) -> list[tuple[int, int]]:
    """The exchanges of a link word's letters: sigma_k -> (a_k, a_{k+1}) and
    sigma_k^-1 -> (a_{k+1}, a_k), where strand k carries anyon a_k, letter g
    being slot g of ``_exchanges``.  ``evolve`` takes the letters themselves
    as slots, so no backend calls this; it stays because the benchmark's
    tracer wraps it by name.  A word wider than MAX_PAIRS is refused before
    it is built."""
    _check_capacity(word.strands)
    return list(map(_exchanges(word.strands).__getitem__, word.letters))


def jones_su2_2(word: BraidWord) -> complex:
    """Signed Jones value at t = i of the word's closure, one pair per strand."""
    state = evolve(word.letters, word.strands)
    return QUANTUM_DIMENSION ** (word.strands - 1) * complex(state[0])


def jones_majorana_abs(word: BraidWord) -> float:
    """|V| at t = i via the amplitude-magnitude relation 2^{(n-1)/2} |<0|U|0>|."""
    state = evolve(word.letters, word.strands)
    return 2.0 ** ((word.strands - 1) / 2.0) * abs(complex(state[0]))
