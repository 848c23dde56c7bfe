"""Exact Kauffman-bracket evaluation of braid closures.

The bracket is computed by the Temperley-Lieb transfer of Kauffman's state
model: reading the word left to right, each letter sigma_i^(+-1) acts as
A^(+-1) * 1 + A^(-+1) * e_i on partial diagrams, and each state of the
closure contributes A^(a-b) d^(loops-1) with d = -A^2 - A^-2.  Strands are
joined to their trace arcs as soon as no later letter touches them, so the
transfer only tracks diagrams on the strands still in play.

Loops are folded as they close: a closing loop multiplies its diagram's
weight by d at once, so every live diagram carries a single Laurent
polynomial in A, and the one weight left at the end is divided by d
exactly once.  Each weight is packed into one Python integer (Kronecker
substitution): the weight is multiplied by a power of A that leaves only
non-negative even exponents, and the coefficient of A^(2i) becomes the
i-th balanced signed digit in base 2^B.  A smoothing or a folded loop is
then a shift and an add on that integer, and the result is decoded once.
All arithmetic is on integers, so results are exact at any size.

Capacity is the work the transfer actually does: the final product by the
untouched strands' loop factors is charged up front by its multiplication
cost, then before each letter every live diagram is charged its two shifts
and adds plus a fixed overhead, and the word is refused with
``CapacityError`` once the running total passes ``MAX_TRANSFER_WORK``,
under a second of work.  A refused word has therefore cost at most that
second.

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

from .braidlang import BraidWord, CapacityError

# the bracket's capacity, in bit operations of its transfer, charged letter
# by letter: each live diagram costs two shifts and adds on its packed weight
# plus fixed interpreter work worth about TRANSITION_BITS bits.  Fitted on a
# 2-core x86_64 box (Python 3.11): 1.2 us per diagram and letter and 1.5e10
# bit operations per second, so the bound is about 0.65 s of transfer, and
# under 1 s on the slowest words a search found
MAX_TRANSFER_WORK = 10 ** 10
TRANSITION_BITS = 20_000
# the final product by d^spare, a Karatsuba product of a big by a small
# integer, costs about big * small^0.585 units (sizes in 30-bit digits): a
# median 9.4 ns per unit on the same box, 140 bit operations at the rate above
PRODUCT_BITS = 140

# evaluation point for t = i  (A^-4 = i)
A_AT_T_I = cmath.exp(3j * cmath.pi / 8)


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

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = LaurentPolynomial.monomial(other)
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        return " + ".join(f"{c}*A^{e}" for e, c in sorted(self.coeffs.items()))


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


def _digit_width(bits: int) -> int:
    """Bits per packed digit for coefficients of magnitude at most 2^bits:
    a whole number of bytes, with room for the sign."""
    return (bits + 2 + 7) // 8 * 8


def _bias(count: int, width: int) -> int:
    """2^(width-1) in each of ``count`` base-2^width digits."""
    return int.from_bytes((bytes(width // 8 - 1) + b"\x80") * count, "little")


def _pack(coeffs: list[int], width: int) -> int:
    """The integer whose balanced base-2^width digits are ``coeffs``, lowest
    first."""
    half, size = 1 << (width - 1), width // 8
    raw = b"".join((a + half).to_bytes(size, "little") for a in coeffs)
    return int.from_bytes(raw, "little") - _bias(len(coeffs), width)


def _unpack(packed: int, width: int) -> list[int]:
    """Balanced base-2^width digits of ``packed``, lowest first; inverse of
    ``_pack`` while every digit has magnitude below 2^(width-1)."""
    half, size = 1 << (width - 1), width // 8
    count = packed.bit_length() // width + 2
    raw = (packed + _bias(count, width)).to_bytes(count * size, "little")
    return [int.from_bytes(raw[i:i + size], "little") - half
            for i in range(0, count * size, size)]


def bracket(word: BraidWord) -> LaurentPolynomial:
    """Kauffman bracket of the trace closure, normalised so the unknot is 1.

    Temperley-Lieb transfer: letter g acts as A^s * 1 + A^-s * e_|g| with
    s = sign(g).  The live state maps each partial diagram to its weight,
    one Laurent polynomial in A in which every loop closed so far is already
    a factor d.  Strands that no letter touches are split unknots, a factor
    d each at the end, so the transfer runs on the live (touched) strands
    alone, renumbered in order.  A diagram is a pairing of slots: slot p is
    the current top end of position p, slot live + p its bottom end, and -1
    marks a closed position.  Each letter steps every live diagram: the
    identity smoothing keeps it, and e_k caps the top ends of k and k + 1
    and cups new ones.  When the letter is the last to touch k or k + 1, one
    closing pass then joins each such strand's top end to its bottom end,
    its trace arc, so only strands still in play are tracked.

    A weight P is stored as the integer A^offset * P at A^2 = 2^B: its
    coefficient of A^(2i) is the i-th B-bit digit.  Per letter the offset
    grows by s + 2, plus 2 per strand the letter closes, so that every
    weight is a left shift: the identity smoothing is A^(2s+2), and e_k and
    each closing strand are A^2, or A^2 d = -(A^4 + 1) when they close a
    loop.  Digits may overflow in between, since each packed integer is
    the exact value of its polynomial; only the final one is decoded.  A
    connected diagram's bracket is a sum of at most 2^c signed monomials
    (Thistlethwaite's spanning-tree expansion) and each further split piece
    multiplies it by d, so the live strands' result, their bracket times one
    spare d, has coefficients below 2^(c+live) and fits B = c + live + 2;
    the untouched strands' d^(n-live-1) is applied at B = c + n + 2.
    """
    n, c = word.strands, word.crossings
    touched = sorted({p for g in word.letters for p in (abs(g) - 1, abs(g))})
    live = len(touched)
    letters = word.letters
    if live < n:
        rank = {p: i for i, p in enumerate(touched)}
        letters = tuple(rank[g - 1] + 1 if g > 0 else -1 - rank[-g - 1] for g in letters)
    last: dict[int, int] = {}
    for j, g in enumerate(letters):
        last[abs(g) - 1] = last[abs(g)] = j
    width = _digit_width(c + live)   # the live closure times one spare d
    wide = _digit_width(c + n)
    spare = max(n - live - 1, 0)
    # the product by d^spare at the end multiplies the live result's 2c + 2
    # digits by 2 spare + 1 binomial digits, all of them wide
    small, big = sorted(((2 * c + 2) * wide / 30, (2 * spare + 1) * wide / 30))
    work = PRODUCT_BITS * big * small ** 0.585 if spare else 0

    start = [live + p for p in range(live)] + list(range(live))
    states = {tuple(start): 1}
    offset = 0
    for j, g in enumerate(letters):
        # each live diagram takes two shifts and adds on about 2(j + 1)
        # digits, plus a fixed overhead
        work += len(states) * (TRANSITION_BITS + 2 * (j + 1) * width)
        if work > MAX_TRANSFER_WORK:
            raise CapacityError(
                f"{c} crossings on {n} strands exceed the bracket's work bound of "
                f"{MAX_TRANSFER_WORK:.2g} bit operations at letter {j + 1}, "
                f"with {len(states)} diagrams live")
        k = abs(g) - 1
        closing = [p for p in (k, k + 1) if last[p] == j]
        up = 2 * width if g > 0 else 0
        offset += (3 if g > 0 else 1) + 2 * len(closing)
        nxt: dict[tuple[int, ...], int] = {}
        get = nxt.get
        for diag, w in states.items():
            # the identity smoothing keeps the diagram
            nxt[diag] = get(diag, 0) + (w << up)
            x = diag[k]
            if x == k + 1:   # e_k closes the cup at k, k+1 and cups again
                key, v = diag, -((w << 2 * width) + w)
            else:
                slots = list(diag)
                y = diag[k + 1]
                slots[x], slots[y] = y, x
                slots[k], slots[k + 1] = k + 1, k
                key, v = tuple(slots), w << width
            nxt[key] = get(key, 0) + v
        if not closing:
            states = nxt
        else:
            states = {}
            for diag, w in nxt.items():
                slots = list(diag)
                for p in closing:
                    # join the top end of p to its bottom end
                    x, y = slots[p], slots[live + p]
                    if x == live + p:   # a loop closes
                        w = -((w << 2 * width) + w)
                    else:
                        slots[x], slots[y] = y, x
                        w <<= width
                    slots[p] = slots[live + p] = -1
                key = tuple(slots)
                states[key] = states.get(key, 0) + w
    (packed,) = states.values()   # every strand is closed: one empty diagram

    if live == n:
        # divide by the spare d: A^2 d = -(A^4 + 1), and the quotient is exact
        packed = -packed // ((1 << 2 * width) + 1)
        offset -= 2
    coeffs = _unpack(packed, width)
    if spare:
        # times d^spare = (-1)^spare A^(-2 spare) (1 + A^4)^spare
        binomials = [0] * (2 * spare + 1)
        b = 1
        for i in range(spare + 1):
            binomials[2 * i] = b
            b = b * (spare - i) // (i + 1)
        packed = _pack(coeffs, wide) * _pack(binomials, wide)
        coeffs = _unpack(-packed if spare % 2 else packed, wide)
        offset += 2 * spare
    return LaurentPolynomial({2 * i - offset: a for i, a in enumerate(coeffs) if a})


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
