"""Pauli strings on a small qubit register: algebra, dense forms, exact
spectra of commuting sums, and state-vector kernels.

Sites are numbered 1..n with site 1 as the most significant bit of the
basis index.  Every layer uses one type, :class:`PauliTerm`: a
coefficient (real for Hamiltonian terms, possibly complex for products of
Majorana strings) times a map from site to axis.  Kernels read a term as
X/Z bitmasks (Y = iXZ contributes both bits); products, commutation checks
and dense matrices all derive from that form.  Applying a term to a state
vector is a single fancy-indexed gather with per-index phases, O(2^n).
The index and sign arrays are built once per word and register size and
shared; each term keeps its coefficient vector (coefficient times the
signs) per register size, built on first use.  A term is therefore treated
as immutable once applied: its factor map is never edited in place.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Mapping

import numpy as np

AXES = ("x", "y", "z")

# single-site products W_a W_b = phase * W_c, keyed by (a, b) over i,x,y,z
_SITE_PRODUCT = {
    ("i", "i"): (1, "i"), ("i", "x"): (1, "x"), ("i", "y"): (1, "y"), ("i", "z"): (1, "z"),
    ("x", "i"): (1, "x"), ("x", "x"): (1, "i"), ("x", "y"): (1j, "z"), ("x", "z"): (-1j, "y"),
    ("y", "i"): (1, "y"), ("y", "x"): (-1j, "z"), ("y", "y"): (1, "i"), ("y", "z"): (1j, "x"),
    ("z", "i"): (1, "z"), ("z", "x"): (1j, "y"), ("z", "y"): (-1j, "x"), ("z", "z"): (1, "i"),
}


@dataclass(frozen=True)
class PauliTerm:
    """Coefficient, possibly complex, times a product of single-site Pauli
    factors.

    An empty factor map is the identity term.  Site indices must lie in
    1..n for the register the term is used on; that is checked at
    application time, not construction.
    """

    coefficient: complex
    factors: Mapping[int, str] = field(default_factory=dict)
    # register size -> (source index, coefficient vector), filled by
    # string_action.  Kept per term, not in a cache keyed by value:
    # complex(-0.0, 1) == complex(0.0, 1), yet the coefficient vectors of
    # two such equal terms differ in the signs of their zeros.
    _actions: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "factors", dict(self.factors))
        for site, axis in self.factors.items():
            if site < 1:
                raise ValueError(f"site {site} out of range (sites start at 1)")
            if axis not in AXES:
                raise ValueError(f"unknown axis {axis!r}")

    def __neg__(self) -> "PauliTerm":
        return PauliTerm(-self.coefficient, self.factors)

    def __mul__(self, other: "PauliTerm") -> "PauliTerm":
        coefficient = self.coefficient * other.coefficient
        factors: dict[int, str] = {}
        for site in set(self.factors) | set(other.factors):
            a = self.factors.get(site, "i")
            b = other.factors.get(site, "i")
            p, c = _SITE_PRODUCT[(a, b)]
            coefficient *= p
            if c != "i":
                factors[site] = c
        return PauliTerm(coefficient, factors)

    def label(self) -> str:
        if not self.factors:
            return f"{self.coefficient:+g}*1"
        body = " ".join(f"{a}{s}" for s, a in sorted(self.factors.items()))
        return f"{self.coefficient:+g}*{body}"

    def commutes_with(self, other: "PauliTerm") -> bool:
        """Strings commute iff they anticommute on an even number of sites."""
        clashes = sum(
            1
            for site, axis in self.factors.items()
            if site in other.factors and other.factors[site] != axis
        )
        return clashes % 2 == 0


def _masks(factors: Mapping[int, str], n: int) -> tuple[int, int, int]:
    """(flip mask, phase mask, y count): X/Y flip bits, Y/Z contribute
    (-1)^bit phases, each Y an extra factor i."""
    flip = 0
    phase = 0
    ycount = 0
    for site, axis in factors.items():
        bit = 1 << (n - site)
        if axis in ("x", "y"):
            flip |= bit
        if axis in ("y", "z"):
            phase |= bit
        if axis == "y":
            ycount += 1
    return flip, phase, ycount


def _parity(values: np.ndarray) -> np.ndarray:
    v = values.copy()
    shift = 16
    while shift:
        v ^= v >> shift
        shift //= 2
    return v & 1


def majorana_string(site: int, flavor: str, n: int) -> PauliTerm:
    """Jordan-Wigner image of a Majorana mode of fermion ``site`` on ``n``
    sites: Z...Z X for flavor 'a', Z...Z Y for flavor 'b'."""
    if not 1 <= site <= n:
        raise ValueError(f"site {site} out of range for {n} sites")
    if flavor not in ("a", "b"):
        raise ValueError(f"flavor must be 'a' or 'b', got {flavor!r}")
    factors = {s: "z" for s in range(1, site)}
    factors[site] = "x" if flavor == "a" else "y"
    return PauliTerm(1.0, factors)


@lru_cache(maxsize=None)
def _kernel(flip: int, phase_mask: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(source index, sign vector) of a Pauli word given by its masks: the
    word maps v to i^(#Y) * sign * v[source].  Shared read-only arrays."""
    src = np.arange(1 << n) ^ flip
    signs = 1.0 - 2.0 * _parity(src & phase_mask)
    src.setflags(write=False)
    signs.setflags(write=False)
    return src, signs


def string_action(term: PauliTerm, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(source index, coefficient vector) with term |v> = coefficient * v[source]
    on ``n`` sites.  Built on the term's first use at ``n`` and kept on the
    term; both arrays are read-only."""
    action = term._actions.get(n)
    if action is None:
        flip, phase_mask, ycount = _masks(term.factors, n)
        src, signs = _kernel(flip, phase_mask, n)
        coeff = (term.coefficient * 1j ** ycount) * signs
        coeff.setflags(write=False)
        action = term._actions[n] = (src, coeff)
    return action


def apply_pauli(term: PauliTerm, state: np.ndarray, n: int) -> np.ndarray:
    """Return term |state> without materialising a matrix."""
    if state.shape != (1 << n,):
        raise ValueError(f"state has shape {state.shape}, expected ({1 << n},)")
    src, coeff = string_action(term, n)
    return coeff * state[src]


def dense_sum(terms: Iterable[PauliTerm], n: int) -> np.ndarray:
    """Dense 2^n x 2^n matrix of a sum of terms (tests and benchmarks only)."""
    out = np.zeros((1 << n, 1 << n), dtype=complex)
    rows = np.arange(1 << n)
    for t in terms:
        src, coeff = string_action(t, n)
        out[rows, src] += coeff
    return out


def commuting_spectrum(terms: Iterable[PauliTerm], n: int) -> np.ndarray:
    """Exact sorted spectrum of a sum of m commuting, independent terms.

    When the terms commute pairwise and their words are independent over
    GF(2) (no product of a non-empty subset is a multiple of the identity),
    every sign pattern s in {+1, -1}^m labels a joint eigenspace of
    dimension 2^(n-m), so the spectrum is {sum_i c_i s_i}, each value
    repeated 2^(n-m) times.  Any other set, or a coefficient with a non-zero
    imaginary part, raises ValueError.
    """
    terms = list(terms)
    for t in terms:
        if complex(t.coefficient).imag:
            raise ValueError(f"term {t.label()} has a complex coefficient")
    for i, a in enumerate(terms):
        for b in terms[i + 1:]:
            if not a.commutes_with(b):
                raise ValueError(f"terms {a.label()} and {b.label()} do not commute")
    # GF(2) elimination on the 2n-bit (X mask, Z mask) vectors; the reduced
    # rows keep distinct leading bits in descending order
    rows: list[int] = []
    for t in terms:
        flip, phase_mask, _ = _masks(t.factors, n)
        v = flip << n | phase_mask
        for r in rows:
            v = min(v, v ^ r)
        if not v:
            raise ValueError(f"term {t.label()} is a product of the other terms")
        rows = sorted(rows + [v], reverse=True)
    m = len(terms)
    signs = 1 - 2 * ((np.arange(1 << m)[:, None] >> np.arange(m)) & 1)
    values = signs @ np.array([complex(t.coefficient).real for t in terms])
    return np.sort(np.repeat(values, 1 << (n - m)))
