"""Exact Kauffman-bracket evaluation of braid closures.

The bracket is computed by the Temperley-Lieb transfer of Kauffman's state
model: reading the word left to right, each letter sigma_i^(+-1) acts as
A^(+-1) * 1 + A^(-+1) * e_i on partial diagrams, and each state of the
closure contributes A^(a-b) d^(loops-1) with d = -A^2 - A^-2.  Strands are
joined to their trace arcs as soon as no later letter touches them, so the
transfer only tracks diagrams on the strands still in play.  All arithmetic
is on integer coefficients, so results are exact; Python integers make
overflow a non-issue at any supported size.

Smoothing convention: for a positive letter the A-smoothing is the
identity-like (vertical) one and the A^-1-smoothing the cap-cup; negative
letters swap the roles.  Under this choice a single positive kink
contributes the usual -A^3 framing factor, and the closure of three
positive crossings on two strands evaluates to -t^4 + t^3 + t (the
positive trefoil) after normalising by (-A)^(-3w) and substituting
t = A^-4.

The Jones value at t = i is obtained by evaluating at A = exp(3i*pi/8).
All four fourth roots of t = i agree on knots, but multi-component links
pick up half-integer powers of t whose sign depends on the root; this one
gives sqrt(2)^(#L-1) with positive sign on unlinks, matching the sign
convention of the mod-2 (arf) formula and of the anyon backend.  Since
A^8 = -1 there, the integer coefficients are folded onto A^0..A^7 exactly
before any floating-point arithmetic.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field

from .braidlang import BraidWord

MAX_CROSSINGS = 24

# evaluation point for t = i  (A^-4 = i)
A_AT_T_I = cmath.exp(3j * cmath.pi / 8)


class CapacityError(ValueError):
    """A backend's size limit exceeded (the bracket's crossing bound, the
    anyon backend's pair cap)."""


@dataclass(frozen=True)
class LaurentPolynomial:
    """Integer-coefficient Laurent polynomial, stored as exponent -> coefficient."""

    coeffs: dict[int, int] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(
            self, "coeffs", {e: c for e, c in self.coeffs.items() if c != 0}
        )

    @classmethod
    def monomial(cls, coeff: int, exponent: int = 0) -> "LaurentPolynomial":
        return cls({exponent: coeff})

    @classmethod
    def zero(cls) -> "LaurentPolynomial":
        return cls({})

    @classmethod
    def one(cls) -> "LaurentPolynomial":
        return cls({0: 1})

    def __add__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return LaurentPolynomial(out)

    def __sub__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        return self + (-other)

    def __neg__(self) -> "LaurentPolynomial":
        return LaurentPolynomial({e: -c for e, c in self.coeffs.items()})

    def __mul__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        out: dict[int, int] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return LaurentPolynomial(out)

    def shift(self, exponent: int) -> "LaurentPolynomial":
        """Multiply by A^exponent."""
        return LaurentPolynomial({e + exponent: c for e, c in self.coeffs.items()})

    def __pow__(self, n: int) -> "LaurentPolynomial":
        if n < 0:
            raise ValueError("negative powers of polynomials are not defined")
        out = LaurentPolynomial.one()
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = LaurentPolynomial.monomial(other)
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        return " + ".join(f"{c}*A^{e}" for e, c in sorted(self.coeffs.items()))

    def substitute_t(self) -> dict:
        """Exponents re-expressed in t = A^-4; fractional keys use Fraction."""
        from fractions import Fraction

        return {Fraction(-e, 4): c for e, c in self.coeffs.items()}


# loop factor d = -A^2 - A^-2
LOOP_FACTOR = LaurentPolynomial({2: -1, -2: -1})


# A_AT_T_I^r for r < 8; A_AT_T_I^(r+8) = -A_AT_T_I^r
_POWERS_AT_T_I = tuple(cmath.exp(3j * cmath.pi * r / 8) for r in range(8))


def eval_at(poly: LaurentPolynomial, a: complex) -> complex:
    """Evaluate at a complex point by exact integer powers; a = 0 is rejected
    when negative exponents are present.

    At ``A_AT_T_I`` the coefficients are first summed exactly per exponent
    mod 8 (with the sign of A^8 = -1), so huge alternating coefficients
    cancel in integers instead of in floating point.
    """
    if a == A_AT_T_I:
        folded = [0] * 8
        for e, c in poly.coeffs.items():
            folded[e % 8] += c if e % 16 < 8 else -c
        return sum(c * _POWERS_AT_T_I[r] for r, c in enumerate(folded))
    if a == 0 and any(e < 0 for e in poly.coeffs):
        raise ZeroDivisionError("cannot evaluate negative exponents at A = 0")
    return sum(c * a ** e for e, c in poly.coeffs.items())


def bracket(word: BraidWord) -> LaurentPolynomial:
    """Kauffman bracket of the trace closure, normalised so the unknot is 1.

    Temperley-Lieb transfer: letter g acts as A^s * 1 + A^-s * e_|g| with
    s = sign(g).  The live state maps each partial diagram to integer state
    counts keyed by (A-exponent, loop count).  A diagram is a pairing of
    slots: slot p is the current top end of position p, slot n + p its
    bottom end, and -1 marks a closed position.  Each strand is closed into
    its trace arc right after the last letter that touches it (untouched
    strands at the start), so only strands still in play are tracked.
    """
    c = word.crossings
    if c > MAX_CROSSINGS:
        raise CapacityError(
            f"{c} crossings exceeds the state-sum bound of {MAX_CROSSINGS}"
        )
    n = word.strands
    last: dict[int, int] = {}
    for j, g in enumerate(word.letters):
        last[abs(g) - 1] = last[abs(g)] = j

    start = [-1] * (2 * n)
    for p in last:
        start[p], start[n + p] = n + p, p
    states = {tuple(start): {(0, n - len(last)): 1}}
    for j, g in enumerate(word.letters):
        k = abs(g) - 1
        s = 1 if g > 0 else -1
        closing = [p for p in (k, k + 1) if last[p] == j]
        nxt: dict[tuple[int, ...], dict[tuple[int, int], int]] = {}
        for diag, weights in states.items():
            for horizontal in (False, True):
                slots = list(diag)
                loops = 0
                if horizontal:
                    # e_k: cap the top ends of k and k+1, cup new ones
                    x, y = slots[k], slots[k + 1]
                    if x == k + 1:
                        loops += 1
                    else:
                        slots[x], slots[y] = y, x
                    slots[k], slots[k + 1] = k + 1, k
                for p in closing:
                    # join the top end of p to its bottom end
                    x, y = slots[p], slots[n + p]
                    if x == n + p:
                        loops += 1
                    else:
                        slots[x], slots[y] = y, x
                    slots[p] = slots[n + p] = -1
                da = -s if horizontal else s
                bucket = nxt.setdefault(tuple(slots), {})
                for (aexp, nloops), w in weights.items():
                    key = (aexp + da, nloops + loops)
                    bucket[key] = bucket.get(key, 0) + w
        states = nxt
    (weights,) = states.values()  # every strand is closed: one empty diagram

    # sum of w * A^aexp * d^(nloops-1), by Horner's rule in d = LOOP_FACTOR
    rows: dict[int, dict[int, int]] = {}
    for (aexp, nloops), w in weights.items():
        rows.setdefault(nloops - 1, {})[aexp] = w
    total: dict[int, int] = {}
    for dpow in range(max(rows), -1, -1):
        acc = dict(rows.get(dpow, {}))
        for e, coeff in total.items():
            for de, dc in LOOP_FACTOR.coeffs.items():
                acc[e + de] = acc.get(e + de, 0) + dc * coeff
        total = acc
    return LaurentPolynomial(total)


def jones_polynomial(word: BraidWord) -> LaurentPolynomial:
    """Jones polynomial of the closure, as a Laurent polynomial in A with
    t = A^-4: the bracket times the writhe normalisation (-A)^(-3w)."""
    w = word.writhe
    br = bracket(word)
    sign = 1 if w % 2 == 0 else -1
    return (br * LaurentPolynomial.monomial(sign)).shift(-3 * w)


def jones_at_i(word: BraidWord) -> complex:
    """Jones value at t = i (see module docstring for the branch choice)."""
    return eval_at(jones_polynomial(word), A_AT_T_I)
