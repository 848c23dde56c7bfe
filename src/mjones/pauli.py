"""Pauli strings on a small qubit register: algebra, dense forms, exact
spectra of commuting sums, state-vector kernels, and an exact
stabilizer tableau.

Sites are numbered 1..n with site 1 as the most significant bit of the
basis index.  Every layer uses one type, :class:`PauliTerm`: a
coefficient (real for Hamiltonian terms, possibly complex for products of
Majorana strings) times a map from site to axis.  Kernels read a term as
X/Z bitmasks (Y = iXZ contributes both bits); products and commutation
checks are the (x, z, r) word rules of the tableau below, and dense
matrices are built from the same masks.  Applying a term to a state
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
        n = _top_site(self, other)
        x, z, r = word_product(_masks(self.factors, n), _masks(other.factors, n))
        # the product's factors carry i^#Y themselves
        y = x & z
        factors = {n - b: "y" if y >> b & 1 else "x" if x >> b & 1 else "z"
                   for b in range(n) if (x | z) >> b & 1}
        phase = _PHASES[(r - y.bit_count()) & 3]
        return PauliTerm(self.coefficient * other.coefficient * phase, factors)

    def label(self) -> str:
        if not self.factors:
            return f"{self.coefficient:+g}*1"
        body = " ".join(f"{a}{s}" for s, a in sorted(self.factors.items()))
        return f"{self.coefficient:+g}*{body}"

    def commutes_with(self, other: "PauliTerm") -> bool:
        """Strings commute iff they anticommute on an even number of sites."""
        n = _top_site(self, other)
        return not anticommute(_masks(self.factors, n), _masks(other.factors, n))


def _top_site(*terms: PauliTerm) -> int:
    return max((int(s) for t in terms for s in t.factors), default=0)


def _masks(factors: Mapping[int, str], n: int) -> tuple[int, int, int]:
    """(flip mask, phase mask, y count): X/Y flip bits, Y/Z contribute
    (-1)^bit phases, each Y an extra factor i."""
    flip = 0
    phase = 0
    ycount = 0
    for site, axis in factors.items():
        bit = 1 << (n - int(site))   # sites may be numpy integers
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
    words = [_masks(t.factors, n) for t in terms]
    for i, a in enumerate(words):
        for j in range(i + 1, len(words)):
            if anticommute(a, words[j]):
                raise ValueError(
                    f"terms {terms[i].label()} and {terms[j].label()} do not commute")
    # GF(2) elimination on the 2n-bit (X mask, Z mask) vectors; the reduced
    # rows keep distinct leading bits in descending order
    rows: list[int] = []
    for t, (flip, phase_mask, _) in zip(terms, words):
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


# ---------------------------------------------------------------------------
# exact stabilizer tableau
# ---------------------------------------------------------------------------
#
# A Pauli word is an (x, z, r) triple of ints meaning i^r X^x Z^z, with the
# bits of _masks: bit n - site of x (z) puts an X (Z) on that site, so a Y
# is i X Z.  The word of a term is exactly the operator apply_pauli applies.

Word = tuple[int, int, int]

_PHASES = (1, 1j, -1, -1j)
_POWER_OF_I = {p: k for k, p in enumerate(_PHASES)}

RANDOM, CERTAIN, CONTRADICTED = "random", "certain", "contradicted"


def pauli_word(term: PauliTerm, n: int) -> Word:
    """The term as an (x, z, r) triple on ``n`` sites; its coefficient must
    be a power of i."""
    power = _POWER_OF_I.get(complex(term.coefficient))
    if power is None:
        raise ValueError(f"term {term.label()} has a coefficient that is not a power of i")
    x, z, ycount = _masks(term.factors, n)
    return x, z, (power + ycount) & 3


def word_product(a: Word, b: Word) -> Word:
    """The word a·b: moving b's X part past a's Z part costs (-1)^|z_a & x_b|."""
    ax, az, ar = a
    bx, bz, br = b
    return ax ^ bx, az ^ bz, (ar + br + 2 * (az & bx).bit_count()) & 3


def anticommute(a: Word, b: Word) -> bool:
    """Words anticommute iff they clash on an odd number of sites."""
    return bool(((a[0] & b[1]) ^ (a[1] & b[0])).bit_count() & 1)


class StabilizerState:
    """An n-qubit stabilizer state as an Aaronson-Gottesman tableau (PRA 70,
    052328, 2004): n commuting Hermitian stabilizer words with the state as
    their joint +1 eigenvector, and n destabilizer words, the i-th of which
    anticommutes with the i-th stabilizer and commutes with the others.
    Destabilizer phases carry no meaning.  Rows are edited in place."""

    __slots__ = ("stabilizers", "destabilizers")

    def __init__(self, stabilizers: list, destabilizers: list):
        self.stabilizers = stabilizers
        self.destabilizers = destabilizers

    @classmethod
    def from_generators(cls, words, n: int) -> "StabilizerState":
        """The state stabilized by ``n`` commuting, independent Hermitian
        words; the destabilizers come from one GF(2) solve."""
        words = list(words)
        if len(words) != n:
            raise ValueError(f"{len(words)} generators for {n} qubits")
        for i, w in enumerate(words):
            if (w[2] - (w[0] & w[1]).bit_count()) & 1:
                raise ValueError(f"generator {i} is not Hermitian")
            if any(anticommute(w, v) for v in words[i + 1:]):
                raise ValueError(f"generator {i} anticommutes with a later one")
        # Row j of the system is the linear form d -> <d, S_j> on a word's
        # x << n | z bits, that is S_j with its X and Z parts swapped.
        # It is reduced to echelon form as it is read.
        rows: list[tuple[int, int, int]] = []   # (bits, rows combined, pivot)
        for j, (x, z, _) in enumerate(words):
            bits, combo = z << n | x, 1 << j
            for rbits, rcombo, pivot in rows:
                if bits >> pivot & 1:
                    bits ^= rbits
                    combo ^= rcombo
            if not bits:
                raise ValueError(f"generator {j} is a product of the others")
            pivot = bits.bit_length() - 1
            rows = [(rbits ^ bits, rcombo ^ combo, rp) if rbits >> pivot & 1
                    else (rbits, rcombo, rp) for rbits, rcombo, rp in rows]
            rows.append((bits, combo, pivot))
        # the unit vector at row k's pivot meets row k alone, so D_i, the sum
        # of the pivots of the rows that combine S_i, meets S_i alone
        low = (1 << n) - 1
        destabilizers = []
        for i in range(n):
            d = 0
            for _, combo, pivot in rows:
                if combo >> i & 1:
                    d |= 1 << pivot
            destabilizers.append((d >> n, d & low, 0))
        return cls(words, destabilizers)

    def copy(self) -> "StabilizerState":
        return StabilizerState(list(self.stabilizers), list(self.destabilizers))

    def measure(self, word: Word) -> str:
        """Force the +1 outcome of a Hermitian word.

        RANDOM: the outcome had probability 1/2 and the state is projected.
        CERTAIN: the state already reads +1.  CONTRADICTED: it reads -1, the
        outcome has probability 0, and the state is left as it was.
        """
        wx, wz, wr = word
        stabs, destabs = self.stabilizers, self.destabilizers
        for p, (sx, sz, _) in enumerate(stabs):
            if ((sx & wz) ^ (sz & wx)).bit_count() & 1:
                s = stabs[p]
                for rows in (stabs, destabs):
                    for i, (x, z, _) in enumerate(rows):
                        if i != p and ((x & wz) ^ (z & wx)).bit_count() & 1:
                            rows[i] = word_product(rows[i], s)
                destabs[p] = s
                stabs[p] = word
                return RANDOM
        # the word commutes with every stabilizer, so it is +- the product of
        # the stabilizers whose destabilizers it anticommutes with; that
        # product's phase is accumulated as in word_product
        az = ar = 0
        for (dx, dz, _), (sx, sz, sr) in zip(destabs, stabs):
            if ((dx & wz) ^ (dz & wx)).bit_count() & 1:
                ar += sr + 2 * (az & sx).bit_count()
                az ^= sz
        return CERTAIN if (ar - wr) & 3 == 0 else CONTRADICTED

    def conjugate(self, word: Word) -> None:
        """Apply the Pauli word to the state: every row it anticommutes with
        changes sign."""
        wx, wz, _ = word
        for rows in (self.stabilizers, self.destabilizers):
            for i, (x, z, r) in enumerate(rows):
                if ((x & wz) ^ (z & wx)).bit_count() & 1:
                    rows[i] = (x, z, (r + 2) & 3)
