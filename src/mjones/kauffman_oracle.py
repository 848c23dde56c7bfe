"""Exact Kauffman-bracket evaluation of braid closures.

The bracket is computed by the Temperley-Lieb transfer of Kauffman's state
model: reading the word left to right, each letter sigma_i^(+-1) acts as
A^(+-1) * 1 + A^(-+1) * e_i on partial diagrams, and each state of the
closure contributes A^(a-b) d^(loops-1) with d = -A^2 - A^-2.  Strands are
joined to their trace arcs as soon as no later letter touches them, so the
transfer only tracks diagrams on the strands still in play.  A letter is
one pass over the live diagrams: each diagram's letter move gives both
smoothings, each followed by the closings of the strands the letter is the
last to touch.  On at most ``TABLE_STRANDS`` live strands the diagrams are
the states of an ``automaton.Automaton`` kept per width and filled on first
use, and each diagram's letter moves are kept on the same table, so a
letter is one dict lookup per live diagram.  Wider diagrams take the same
letter move, computed from ``_diagram_step``, the step that fills the
tables, on every use, and nothing of them is kept, as a kept table of them
would grow without bound.

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
under a second of work.  Wide words whose letters close strands are
under-charged, as their weights grow faster than the charge counts: s1 s2
... s2047 is refused at letter 1559 after about five seconds.

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
from functools import lru_cache

from .automaton import Automaton
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

# words on at most this many live strands step a kept ``_table`` of
# diagrams and of their letter moves, a letter one dict lookup per diagram:
# 2 / 5 / 15 / 53 / 212 / 931 diagrams at 1-6 live strands, all six tables
# filled 0.30 MB under tracemalloc, and 1.65 MB with every letter move kept
# as well (8 / 56 / 320 / 1776 / 9920 moves at 2-6 live strands).  Wider
# words compute their moves from ``_diagram_step`` on every use and keep
# none, as a kept table would hold every wide diagram ever reached, up to
# 4096 slots each
TABLE_STRANDS = 6

# evaluation point for t = i  (A^-4 = i)
A_AT_T_I = cmath.exp(3j * cmath.pi / 8)


@dataclass(frozen=True)
class LaurentPolynomial:
    """Integer-coefficient Laurent polynomial, stored as exponent -> coefficient.
    Zero coefficients are dropped into a new dict; a dict without one is
    kept as given."""

    coeffs: dict[int, int] = field(default_factory=dict)

    def __post_init__(self):
        if 0 in self.coeffs.values():
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


def eval_at(poly: LaurentPolynomial) -> complex:
    """Evaluate at ``A_AT_T_I``.  The coefficients are first summed exactly
    per exponent mod 8 (with the sign of A^8 = -1), so huge alternating
    coefficients cancel in integers instead of in floating point.
    """
    folded = [0] * 8
    for e, c in poly.coeffs.items():
        folded[e % 8] += c if e % 16 < 8 else -c
    return sum(c * _POWERS_AT_T_I[r] for r, c in enumerate(folded))


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
    count = packed.bit_length() // width + 2
    return _digits(packed + _bias(count, width), count, width)


def _digits(biased: int, count: int, width: int) -> list[int]:
    """The ``count`` lowest base-2^width digits of ``biased``, each less the
    bias 2^(width-1), by mask and shift.  Above 32 digits the integer is
    split in halves first, so a long one is not shifted once per digit."""
    if count > 32:
        h = count // 2
        return (_digits(biased & (1 << h * width) - 1, h, width)
                + _digits(biased >> h * width, count - h, width))
    half, mask = 1 << (width - 1), (1 << width) - 1
    return [(biased >> i & mask) - half for i in range(0, count * width, width)]


def _diagram_step(live: int, diag: tuple, slot: int) -> tuple:
    """One step as a (diagram, shift, loops) triple: e_k at slot k < live
    caps the top ends p = k and q = k + 1 and cups new ones, and the closing
    of strand p at slot live + p joins p's top end to its bottom end
    q = live + p.  If p and q were paired a loop closes, (0, 1); otherwise
    their partners pair up, (1, 0)."""
    slots = list(diag)
    if slot < live:
        p, q = slot, slot + 1
    else:
        p, q = slot - live, slot
    x, y = slots[p], slots[q]
    if x != q:
        slots[x], slots[y] = y, x
    if slot < live:
        slots[p], slots[q] = q, p
    else:
        slots[p] = slots[q] = -1
    return (tuple(slots), 1, 0) if x != q else (tuple(slots), 0, 1)


def _letter_move(live: int, step, diag, move: int) -> tuple:
    """Letter move ``move`` = 4k + c of a diagram: the identity smoothing and
    then e_k, each followed by the closing of strand k if bit 0 of c is set
    and of strand k + 1 if bit 1 is.  Each result is a (diagram, shift,
    loops) triple, in that order: ``shift`` counts the steps that close no
    loop, ``loops`` those that close one.  ``step`` is ``_diagram_step`` on
    the diagrams' own form."""
    k = move >> 2
    if not move & 3:   # most letters close no strand
        return (diag, 0, 0) + step(live, diag, k)
    out = ()
    for d, shift, loops in ((diag, 0, 0), step(live, diag, k)):
        for p in (k, k + 1):
            if move >> p - k & 1:
                d, a, x = step(live, d, live + p)
                shift, loops = shift + a, loops + x
        out += (d, shift, loops)
    return out


@lru_cache(maxsize=None)
def _table(live: int) -> Automaton:
    """The diagrams on ``live`` strands as an ``automaton.Automaton``, each
    diagram its own key and each step of ``_diagram_step`` its own slot.
    Its ``moves[m]`` maps a diagram id to its letter move m, kept on first
    use, so ``_table.cache_clear()`` drops every table with its moves."""
    start = tuple(live + p for p in range(live)) + tuple(range(live))
    table = Automaton(start, lambda diag: diag,
                      lambda diag, slot: _diagram_step(live, diag, slot)[0], 2 * live)
    table.moves = [{} for _ in range(4 * (live - 1))]
    return table


def _kept_move(live: int, table: Automaton, s: int, move: int) -> tuple:
    """Letter move ``move`` of diagram id s in ``_table(live)``, stepped along
    the table's rows (a miss filling them) and kept in ``table.moves``."""
    rows, states = table.rows, table.states

    def step(live, s, slot):
        t = rows[s][slot]
        return ((table.step(s, slot) if t is None else t),
                *_diagram_step(live, states[s], slot)[1:])

    table.moves[move][s] = out = _letter_move(live, step, s, move)
    return out


def bracket(word: BraidWord, *, normalise: bool = False) -> LaurentPolynomial:
    """Kauffman bracket of the trace closure, normalised so the unknot is 1;
    with ``normalise``, the bracket times the writhe normalisation
    (-A)^(-3w), the Jones polynomial in A, from the same decoding.

    Temperley-Lieb transfer: letter g acts as A^s * 1 + A^-s * e_|g| with
    s = sign(g).  The live state maps each partial diagram to its weight,
    one Laurent polynomial in A in which every loop closed so far is already
    a factor d.  Strands that no letter touches are split unknots, a factor
    d each at the end, so the transfer runs on the live (touched) strands
    alone, renumbered in order.  A diagram is a pairing of slots: slot p is
    the current top end of position p, slot live + p its bottom end, and -1
    marks a closed position.  A letter is one pass over the live diagrams:
    each diagram's letter move (``_letter_move``) gives the identity
    smoothing and e_k, which caps the top ends of k and k + 1 and cups new
    ones, each followed by the closings of the strands the letter is the
    last to touch, which join a strand's top end to its bottom end, its
    trace arc, so only strands still in play are tracked.  One reverse pass
    over the word gives each letter its move index 4k + c, c the bits of
    its closing strands.  On at most ``TABLE_STRANDS`` live strands a
    diagram is its id in ``_table(live)`` and its move is computed once from
    the table's rows and kept on the table, so a letter costs one dict
    lookup per diagram.  Wider diagrams are slot tuples, hashed as dict keys
    and not kept: their moves are computed from ``_diagram_step`` on every
    use.

    A weight P is stored as the integer A^offset * P at A^2 = 2^B: its
    coefficient of A^(2i) is the i-th B-bit digit.  Per letter the offset
    grows by s + 2, plus 2 per strand the letter closes, 2 per positive
    letter + c + 2 live in all, so that every weight is a left shift: the
    identity smoothing is A^(2s+2), and e_k and each closing strand are A^2,
    or A^2 d = -(A^4 + 1) when they close a loop; a move's result is shifted
    by its shift times B, then takes -((v << 2B) + v) once per loop.  Digits
    may overflow in between, since each packed integer is the exact value of
    its polynomial; only the final one is decoded.  A connected diagram's
    bracket is a sum of at most 2^c signed monomials (Thistlethwaite's
    spanning-tree expansion) and each further split piece multiplies it by
    d, so the live strands' result, their bracket times one spare d, has
    coefficients below 2^(c+live) and fits B = c + live + 2; the untouched
    strands' d^(n-live-1) is applied at B = c + n + 2.
    """
    n, c = word.strands, word.crossings
    letters = word.letters
    columns = set(map(abs, letters))
    live = n
    if len(columns) < n - 1 or not letters:
        # a column is unused, so a strand may be untouched (the empty word
        # touches none): the transfer runs on the touched ones, renumbered
        touched = sorted({p for g in columns for p in (g - 1, g)})
        live = len(touched)
        rank = {p: i for i, p in enumerate(touched)}
        letters = tuple(rank[g - 1] + 1 if g > 0 else -1 - rank[-g - 1] for g in letters)
    # each letter's move index 4k + c, c the bits of k and k + 1 when no later
    # letter touches them, read last letter first
    index, open_, positive = [], [True] * live, 0
    for g in reversed(letters):
        k = abs(g) - 1
        index.append(4 * k + open_[k] + 2 * open_[k + 1])
        open_[k] = open_[k + 1] = False
        positive += g > 0
    index.reverse()
    width = _digit_width(c + live)   # the live closure times one spare d
    spare = max(n - live - 1, 0)
    work = 0
    if spare:
        wide = _digit_width(c + n)
        # the product by d^spare at the end multiplies the live result's
        # 2c + 2 digits by 2 spare + 1 binomial digits, all of them wide
        small, big = sorted(((2 * c + 2) * wide / 30, (2 * spare + 1) * wide / 30))
        work = PRODUCT_BITS * big * small ** 0.585

    if live <= TABLE_STRANDS:
        table = _table(live)
        kept, start = table.moves, 0
        move, via = _kept_move, table
    else:
        kept = None
        start = tuple(live + p for p in range(live)) + tuple(range(live))
        move, via = _letter_move, _diagram_step
    # a result's shift in bits; the identity smoothing adds its own A^(2s+2)
    shifts = [i * width for i in range(5)]
    raised, twice = shifts[2:], 2 * width
    states = {start: 1}
    for j, m in enumerate(index):
        # each live diagram takes two shifts and adds on about 2(j + 1)
        # digits, plus a fixed overhead
        work += len(states) * (TRANSITION_BITS + 2 * (j + 1) * width)
        if work > MAX_TRANSFER_WORK:
            raise CapacityError(
                f"{c} crossings on {n} strands exceed the bracket's work bound of "
                f"{MAX_TRANSFER_WORK:.2g} bit operations at letter {j + 1}, "
                f"with {len(states)} diagrams live")
        find = kept and kept[m].get
        up = raised if letters[j] > 0 else shifts
        nxt = {}
        get = nxt.get
        for s, w in states.items():
            t, a, x, u, b, y = find and find(s) or move(live, via, s, m)
            v = w << up[a]
            while x:
                v = -((v << twice) + v)
                x -= 1
            old = get(t)   # a first result is kept as it is, not added to 0
            nxt[t] = v if old is None else old + v
            v = w << shifts[b] if b else w   # b = 0 only when e_k closes a loop
            while y:
                v = -((v << twice) + v)
                y -= 1
            old = get(u)
            nxt[u] = v if old is None else old + v
        states = nxt
    (packed,) = states.values()   # every strand is closed: one empty diagram
    offset = 2 * positive + c + 2 * live
    if normalise:   # times (-A)^(-3w) = (-1)^w A^(-3w)
        writhe = 2 * positive - c
        offset += 3 * writhe
        if writhe % 2:
            packed = -packed

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
    t = A^-4: the bracket times the writhe normalisation (-A)^(-3w), applied
    in the bracket's own decoding."""
    return bracket(word, normalise=True)


def jones_at_i(word: BraidWord) -> complex:
    """Jones value at t = i (see module docstring for the branch choice)."""
    return eval_at(jones_polynomial(word))
