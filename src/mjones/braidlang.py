"""Braid words and the combinatorial invariants of their trace closures.

A braid word on ``n`` strands is a sequence of signed generator indices:
``+k`` stands for the generator crossing strand ``k`` over strand ``k+1``
(written ``s<k>``), ``-k`` for its inverse (``s<k>^-1``).  Strands and
generators are numbered from 1 on the outside; internally everything is
0-based.  Closing a braid by joining each top endpoint to the bottom
endpoint directly below it (trace closure) produces an oriented link, and
all invariants computed here refer to that closure.

The invariants are purely combinatorial: writhe, component count, pairwise
linking numbers, the evenness condition on total linking ("properness"),
and the sign of the Jones value at t = i, the Arf invariant (Murasugi;
Lickorish-Millett 1986).  That sign is read off the closure's Seifert
surface: one disc per strand, one half-twisted band per letter, and one
loop per two consecutive letters of a column (J. Collins 2016).
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass


class BraidSyntaxError(ValueError):
    """Raised for malformed braid-word text; message carries the token position."""


@dataclass(frozen=True)
class BraidWord:
    """A braid word: strand count plus signed generator letters.

    ``strands`` must exceed ``|g|`` for every letter ``g``.  The empty word
    is legal and closes to the ``strands``-component unlink.
    """

    strands: int
    letters: tuple[int, ...] = ()

    def __post_init__(self):
        if self.strands < 1:
            raise ValueError(f"strand count must be positive, got {self.strands}")
        object.__setattr__(self, "letters", tuple(self.letters))
        for g in self.letters:
            if g == 0 or abs(g) >= self.strands:
                raise ValueError(
                    f"letter {g} out of range for {self.strands} strands "
                    f"(need 1 <= |g| <= {self.strands - 1})"
                )

    @property
    def writhe(self) -> int:
        return sum(1 if g > 0 else -1 for g in self.letters)

    @property
    def crossings(self) -> int:
        return len(self.letters)

    def max_generator(self) -> int:
        return max((abs(g) for g in self.letters), default=0)

    def with_strands(self, strands: int) -> "BraidWord":
        """Same letters on a wider braid; the closure gains unknot components."""
        return BraidWord(strands, self.letters)

    def __str__(self) -> str:
        return format_braid(self)


_TOKEN = re.compile(r"^(?:s(\d+)(\^-1)?|(-?\d+))$")
_STRANDS = re.compile(r"^strands=(\d+)$")


def parse_braid(text: str) -> BraidWord:
    """Parse whitespace-separated braid tokens into a :class:`BraidWord`.

    Accepted tokens: ``s<k>``, ``s<k>^-1``, ``<k>``, ``-<k>``, plus an
    optional leading ``strands=<n>``.  Without the prefix the strand count
    defaults to ``1 + max |k|`` (1 for the empty word).  ``k = 0`` and
    generators out of range are rejected with the token position in the
    message.
    """
    tokens = text.split()
    strands = None
    start = 0
    if tokens and (m := _STRANDS.match(tokens[0])):
        strands = int(m.group(1))
        if strands < 1:
            raise BraidSyntaxError("token 1: strand count must be positive")
        start = 1

    letters = []
    for pos, tok in enumerate(tokens[start:], start=start + 1):
        m = _TOKEN.match(tok)
        if not m:
            raise BraidSyntaxError(f"token {pos}: malformed braid token {tok!r}")
        if m.group(1) is not None:
            k = int(m.group(1))
            g = -k if m.group(2) else k
        else:
            g = int(m.group(3))
        if g == 0:
            raise BraidSyntaxError(f"token {pos}: generator index 0 is not allowed")
        letters.append(g)

    if strands is None:
        strands = 1 + max((abs(g) for g in letters), default=0)
    for pos, g in enumerate(letters, start=start + 1):
        if abs(g) >= strands:
            raise BraidSyntaxError(
                f"token {pos}: generator s{abs(g)} out of range for {strands} strands"
            )
    return BraidWord(strands, tuple(letters))


def format_braid(word: BraidWord) -> str:
    """Canonical printed form; ``parse_braid`` round-trips it exactly.

    The ``strands=`` prefix is emitted only when the count is not implied
    by the letters.
    """
    toks = [f"s{abs(g)}" + ("^-1" if g < 0 else "") for g in word.letters]
    if word.strands != 1 + word.max_generator():
        toks.insert(0, f"strands={word.strands}")
    return " ".join(toks)


def closure_permutation(word: BraidWord) -> tuple[int, ...]:
    """Permutation induced on strands by the word (0-based; signs ignored).

    Entry ``i`` is the final position of the strand that starts at position
    ``i``; its cycles are the closure's components.
    """
    at_pos = list(range(word.strands))
    for g in word.letters:
        k = abs(g) - 1
        at_pos[k], at_pos[k + 1] = at_pos[k + 1], at_pos[k]
    perm = [0] * word.strands
    for pos, strand in enumerate(at_pos):
        perm[strand] = pos
    return tuple(perm)


@dataclass(frozen=True)
class LinkInvariants:
    """Combinatorial data of a braid closure.

    ``linking[i][j]`` is the linking number of components ``i`` and ``j``
    (half the signed count of crossings between them); the diagonal is
    zero.  ``proper`` records whether every component has even total
    linking with the union of the others.
    """

    writhe: int
    components: int
    linking: tuple[tuple[int, ...], ...]
    proper: bool


def link_invariants(word: BraidWord) -> LinkInvariants:
    """Writhe, components, linking matrix and properness of the closure."""
    perm = closure_permutation(word)
    comp_of = [-1] * word.strands
    ncomp = 0
    for s in range(word.strands):
        if comp_of[s] >= 0:
            continue
        t = s
        while comp_of[t] < 0:
            comp_of[t] = ncomp
            t = perm[t]
        ncomp += 1

    crossing_sum = [[0] * ncomp for _ in range(ncomp)]
    at_pos = list(range(word.strands))
    for g in word.letters:
        k = abs(g) - 1
        a, b = at_pos[k], at_pos[k + 1]
        ca, cb = comp_of[a], comp_of[b]
        if ca != cb:
            s = 1 if g > 0 else -1
            crossing_sum[ca][cb] += s
            crossing_sum[cb][ca] += s
        at_pos[k], at_pos[k + 1] = at_pos[k + 1], at_pos[k]

    linking = []
    for i in range(ncomp):
        row = []
        for j in range(ncomp):
            # each inter-component crossing was recorded twice (once per order)
            total = crossing_sum[i][j]
            if total % 2 != 0:
                raise AssertionError(
                    "inter-component crossing count is odd; impossible for a closure"
                )
            row.append(total // 2)
        linking.append(tuple(row))

    proper = all(
        sum(linking[i][j] for j in range(ncomp) if j != i) % 2 == 0
        for i in range(ncomp)
    )
    return LinkInvariants(
        writhe=word.writhe,
        components=ncomp,
        linking=tuple(linking),
        proper=proper,
    )


@dataclass(frozen=True)
class SeifertForm:
    """Mod-2 Seifert form q(x) = lk(x, x+) on the surface's loops in closing
    order: ``diagonal[a]`` is q of loop ``a``; bit ``b`` of ``rows[a]`` is set
    when loops ``a`` and ``b`` meet an odd number of times.  ``pieces``
    counts the surface's connected parts."""

    pieces: int
    diagonal: tuple[bool, ...]
    rows: tuple[int, ...]


def lookup_arf_data(word: BraidWord) -> SeifertForm:
    """Seifert form of the closure, built in one pass over the word.

    Two consecutive letters of column k, at times p < t, bound a loop with
    q = 1 iff they have the same sign.  It meets the next loop of column k
    (they share the band at t) and each loop of column k +- 1 whose time
    interval interlaces with (p, t).  Such a pair is found when its first
    loop closes: the open loop of a neighbour column then interlaces with
    (p, t) iff it opened after p.
    """
    n = word.strands
    when = [-1] * (n + 1)      # time of each column's last letter; 0 and n stay empty
    sign = [0] * (n + 1)       # that letter
    pending = [[] for _ in range(n + 1)]   # closed loops that each column's open loop meets
    diagonal, rows = [], []
    for t, g in enumerate(word.letters):
        k = abs(g)
        p = when[k]
        if p >= 0:
            a = len(rows)
            row = 0
            for b in pending[k]:
                rows[b] |= 1 << a
                row |= 1 << b
            rows.append(row)
            diagonal.append((sign[k] ^ g) >= 0)     # same sign
            pending[k] = [a]
            if when[k - 1] > p:
                pending[k - 1].append(a)
            if when[k + 1] > p:
                pending[k + 1].append(a)
        when[k], sign[k] = t, g
    # each column in use joins two discs into one surface piece
    return SeifertForm(n - sum(w >= 0 for w in when), tuple(diagonal), tuple(rows))


def gauss_sum(form: SeifertForm) -> int:
    """G = sum over x in GF(2)^r of (-1)^q(x), exactly: 0 or +-2^k.

    The lowest remaining loop ``a`` goes with its lowest neighbour ``b``:
    summing over x_a fixes x_b, leaving a factor 2 and the term
    (q_a + L_a)(q_b + L_b), L_a and L_b the sums over their other
    neighbours.  A loop without neighbours gives 2 if its q is 0, else 0.
    """
    rows, diag = list(form.rows), list(form.diagonal)
    g = 1
    for a, row_a in enumerate(rows):
        if row_a is None:       # eliminated as a partner
            continue
        g *= 2
        if not row_a:
            if diag[a]:
                return 0
            continue
        bit_a, bit_b = 1 << a, row_a & -row_a
        b = bit_b.bit_length() - 1
        only_a, only_b = row_a ^ bit_b, rows[b] ^ bit_a
        da, db = diag[a], diag[b]
        g = -g if da and db else g
        rows[b] = None
        todo = only_a | only_b
        while todo:
            bit_c = todo & -todo
            todo ^= bit_c
            c = bit_c.bit_length() - 1
            in_a, in_b = only_a & bit_c != 0, only_b & bit_c != 0
            rows[c] ^= (only_b ^ bit_a if in_a else 0) ^ (only_a ^ bit_b if in_b else 0)
            diag[c] ^= (in_a and db) ^ (in_b and da) ^ (in_a and in_b)
    return g


def arf_invariant(inv: LinkInvariants, form: SeifertForm) -> int:
    """Arf invariant of the closure: 1 iff its Seifert form's Gauss sum is
    negative.  Undefined (raises) for non-proper links.  A proper link of m
    components on r loops and s pieces has |G| = 2^((r - s + m)/2), the
    intersection form's radical having rank m - s; other values are a fault.
    """
    if not inv.proper:
        raise ValueError("invariant undefined: link is not proper")
    g = gauss_sum(form)
    twice = len(form.rows) - form.pieces + inv.components
    if twice % 2 or abs(g) != 1 << twice // 2:
        raise AssertionError(f"Gauss sum {g} does not fit a proper link of {inv.components} components")
    return int(g < 0)


# sqrt(2)^(n-1) is a double iff n <= 2 * max_exp, i.e. 2048
MAX_STRANDS = 2 * sys.float_info.max_exp


def jones_from_arf(inv: LinkInvariants, arf: int | None) -> float:
    """Jones value at t = i from component count and the mod-2 invariant.

    Non-proper links evaluate to 0 (and must be called with ``arf=None``);
    proper links give sqrt(2)^(components-1) with sign (-1)^arf.
    """
    if not inv.proper:
        if arf is not None:
            raise ValueError("arf value supplied for a non-proper link")
        return 0.0
    if arf is None:
        raise ValueError("proper link requires an arf value")
    half, odd = divmod(inv.components - 1, 2)
    magnitude = float(2 ** half) * (math.sqrt(2.0) if odd else 1.0)
    return -magnitude if arf % 2 else magnitude
