"""Pauli strings on a small qubit register: algebra, dense forms, exact
spectra of commuting sums, and state-vector kernels.

Sites are numbered 1..n with site 1 as the most significant bit of the
basis index.  A string is held as X/Z bitmasks plus a complex phase
(Y = iXZ contributes both bits); products, commutation checks and dense
matrices all derive from that form.  Applying a string to a state vector
is a single fancy-indexed gather with per-index phases, O(2^n); the index
and sign arrays are built once per word and register size and cached.
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
    """Real coefficient times a product of single-site Pauli factors.

    An empty factor map is the identity term.  Site indices must lie in
    1..n for the register the term is used on; that is checked at
    application time, not construction.
    """

    coefficient: float
    factors: Mapping[int, str] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "factors", dict(self.factors))
        for site, axis in self.factors.items():
            if site < 1:
                raise ValueError(f"site {site} out of range (sites start at 1)")
            if axis not in AXES:
                raise ValueError(f"unknown axis {axis!r}")

    def __neg__(self) -> "PauliTerm":
        return PauliTerm(-self.coefficient, self.factors)

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


@dataclass(frozen=True)
class PauliString:
    """Phase times a bare Pauli word, in X/Z mask form (site 1 = high bit)."""

    n_sites: int
    phase: complex = 1.0
    factors: Mapping[int, str] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "factors", dict(self.factors))
        for site in self.factors:
            if not 1 <= site <= self.n_sites:
                raise ValueError(f"site {site} out of range for {self.n_sites} sites")

    def __mul__(self, other: "PauliString") -> "PauliString":
        if other.n_sites != self.n_sites:
            raise ValueError("site-count mismatch")
        phase = self.phase * other.phase
        factors: dict[int, str] = {}
        for site in set(self.factors) | set(other.factors):
            a = self.factors.get(site, "i")
            b = other.factors.get(site, "i")
            p, c = _SITE_PRODUCT[(a, b)]
            phase *= p
            if c != "i":
                factors[site] = c
        return PauliString(self.n_sites, phase, factors)

    def dagger(self) -> "PauliString":
        return PauliString(self.n_sites, complex(self.phase).conjugate(), self.factors)

    def as_term(self) -> PauliTerm:
        """Convert to a real-coefficient term; fails on residual imaginary phase."""
        if abs(complex(self.phase).imag) > 1e-14:
            raise ValueError(f"phase {self.phase} is not real")
        return PauliTerm(float(complex(self.phase).real), self.factors)


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


def majorana_string(site: int, flavor: str, n: int) -> PauliString:
    """Jordan-Wigner image of a Majorana mode of fermion ``site`` on ``n``
    sites: Z...Z X for flavor 'a', Z...Z Y for flavor 'b'."""
    factors = {s: "z" for s in range(1, site)}
    factors[site] = "x" if flavor == "a" else "y"
    return PauliString(n, 1.0, factors)


@lru_cache(maxsize=None)
def _kernel(flip: int, phase_mask: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(source index, sign vector) of a Pauli word given by its masks: the
    word maps v to i^(#Y) * sign * v[source].  Shared read-only arrays."""
    src = np.arange(1 << n) ^ flip
    signs = 1.0 - 2.0 * _parity(src & phase_mask)
    src.setflags(write=False)
    signs.setflags(write=False)
    return src, signs


def string_action(string: PauliString) -> tuple[np.ndarray, np.ndarray]:
    """(source index, coefficient vector) with string |v> = coefficient * v[source]."""
    flip, phase_mask, ycount = _masks(string.factors, string.n_sites)
    src, signs = _kernel(flip, phase_mask, string.n_sites)
    return src, (string.phase * 1j ** ycount) * signs


def apply_pauli(term: PauliTerm, state: np.ndarray, n: int) -> np.ndarray:
    """Return (coefficient * Pauli word) |state> without materialising a matrix."""
    if state.shape != (1 << n,):
        raise ValueError(f"state has shape {state.shape}, expected ({1 << n},)")
    flip, phase_mask, ycount = _masks(term.factors, n)
    src, signs = _kernel(flip, phase_mask, n)
    return (term.coefficient * (1j ** ycount)) * signs * state[src]


def dense_sum(terms: Iterable[PauliTerm], n: int) -> np.ndarray:
    """Dense 2^n x 2^n matrix of a sum of terms (verification paths only)."""
    out = np.zeros((1 << n, 1 << n), dtype=complex)
    rows = np.arange(1 << n)
    for t in terms:
        flip, phase_mask, ycount = _masks(t.factors, n)
        src, signs = _kernel(flip, phase_mask, n)
        out[rows, src] += (t.coefficient * (1j ** ycount)) * signs
    return out


def commuting_spectrum(terms: Iterable[PauliTerm], n: int) -> np.ndarray:
    """Exact sorted spectrum of a sum of m commuting, independent terms.

    When the terms commute pairwise and their words are independent over
    GF(2) (no product of a non-empty subset is a multiple of the identity),
    every sign pattern s in {+1, -1}^m labels a joint eigenspace of
    dimension 2^(n-m), so the spectrum is {sum_i c_i s_i}, each value
    repeated 2^(n-m) times.  Any other set raises ValueError.
    """
    terms = list(terms)
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
    values = signs @ np.array([t.coefficient for t in terms], dtype=float)
    return np.sort(np.repeat(values, 1 << (n - m)))
