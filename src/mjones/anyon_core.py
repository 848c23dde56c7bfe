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

The Jones value at t = i of the word's closure on n pairs is

    V = d^(n-1) <0...0|U|0...0>,   d = sqrt(2),

with no writhe phase: in this sign convention the unknot sigma_1 comes out
exactly 1 and the sample links 0, -1, -sqrt 2, -1, -2, as the bracket
oracle gives them.  Pairs beyond the word's strands are spectator
worldlines that close to split unknots, each scaling V by d.  The cost is
O(letters * 2^n); above MAX_PAIRS the backend raises CapacityError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .braidlang import BraidWord
from .kauffman_oracle import CapacityError
from .pauli import PauliTerm, majorana_string, string_action

QUANTUM_DIMENSION = math.sqrt(2.0)

# a 1000-letter word evolves in under a second at 16 pairs; the cost
# doubles with every further pair
MAX_PAIRS = 16

_SQRT_HALF = math.sqrt(0.5)


def _anyon(strand: int) -> int:
    return 2 if strand == 1 else 2 * strand - 1


def _mode(anyon: int, pairs: int) -> PauliTerm:
    return majorana_string((anyon + 1) // 2, "a" if anyon % 2 else "b", pairs)


@lru_cache(maxsize=None)
def _exchange(a: int, b: int, pairs: int) -> tuple[np.ndarray, np.ndarray]:
    """(source, coefficient) with gamma_a gamma_b |v> = coefficient * v[source]."""
    if a == b or not (1 <= a <= 2 * pairs and 1 <= b <= 2 * pairs):
        raise ValueError(f"exchange ({a}, {b}) out of range for {pairs} pairs")
    src, coeff = string_action(_mode(a, pairs) * _mode(b, pairs), pairs)
    coeff.setflags(write=False)
    return src, coeff


def braid_generators(pairs: int) -> tuple[np.ndarray, ...]:
    """Dense matrices of the 2*pairs - 1 adjacent exchanges (m, m+1)."""
    rows = np.arange(1 << pairs)
    gens = []
    for m in range(1, 2 * pairs):
        src, coeff = _exchange(m, m + 1, pairs)
        g = np.eye(1 << pairs, dtype=complex)
        g[rows, src] += coeff
        gens.append(g * _SQRT_HALF)
    return tuple(gens)


def evolve(letters, pairs: int) -> np.ndarray:
    """U|0...0> for a word of exchange letters (a, b), first letter first."""
    if pairs > MAX_PAIRS:
        raise CapacityError(f"anyon backend is capped at {MAX_PAIRS} pairs, not {pairs}")
    state = np.zeros(1 << pairs, dtype=complex)
    state[0] = 1.0
    for a, b in letters:
        src, coeff = _exchange(a, b, pairs)
        state = (state + coeff * state[src]) * _SQRT_HALF
    return state


def vacuum_amplitude(state: np.ndarray) -> complex:
    """Amplitude <0...0|U|0...0>, read from the evolved vacuum U|0...0>."""
    return complex(state[0])


def link_to_anyon_word(word: BraidWord, pairs: int) -> list[tuple[int, int]]:
    """Exchange letters of a link word: sigma_k -> (a_k, a_{k+1}) and
    sigma_k^-1 -> (a_{k+1}, a_k), where strand k carries anyon a_k."""
    if word.strands > pairs:
        raise ValueError(
            f"word needs {word.strands} strands but only {pairs} pairs are available"
        )
    return [(_anyon(g), _anyon(g + 1)) if g > 0 else (_anyon(1 - g), _anyon(-g))
            for g in word.letters]


@dataclass(frozen=True)
class JonesValue:
    """Signed Jones value at t = i."""

    value: complex


def jones_su2_2(word: BraidWord, pairs: int) -> JonesValue:
    """Signed Jones value at t = i of the word's closure on ``pairs`` pairs."""
    state = evolve(link_to_anyon_word(word, pairs), pairs)
    value = QUANTUM_DIMENSION ** (pairs - 1) * vacuum_amplitude(state)
    return JonesValue(value=complex(value))


def jones_majorana_abs(word: BraidWord, pairs: int) -> float:
    """|V| at t = i via the amplitude-magnitude relation 2^{(n-1)/2} |<0|U|0>|."""
    state = evolve(link_to_anyon_word(word, pairs), pairs)
    return 2.0 ** ((pairs - 1) / 2.0) * abs(vacuum_amplitude(state))
