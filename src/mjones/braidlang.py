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
loop per two consecutive letters of a column (J. Collins 2016), as the
sign of the Gauss sum of the loops' mod-2 form, which ``mjones.seifert``
takes in one pass over the word.

The text front end costs about one builtin pass per letter: ``parse_braid``
matches each distinct token once and maps the token list through those
letters, a word read from canonical tokens prints as those tokens
re-joined, and on at most ``PERMUTATION_STRANDS`` strands
``link_invariants`` steps the closure permutation through an automaton of
its 1 + n!(2n - 2) transitions, one index and one count per letter.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple


class BraidSyntaxError(ValueError):
    """Raised for malformed braid-word text; message carries the token position."""


class CapacityError(ValueError):
    """A size limit exceeded: more than ``MAX_STRANDS`` strands, or a
    backend's own cap (the bracket's work bound, the anyon backend's pair
    count, the spin register's three strands)."""


# The spin replay's default tau and its error, defined here rather than in
# ``spin_sim`` so that the CLI can name them without loading numpy.
DEFAULT_TAU = 20.0


class DegenerateEvolutionError(RuntimeError):
    """State annihilated by a projection step (no ground-space component)."""


@dataclass(frozen=True)
class BraidWord:
    """A braid word: strand count plus signed generator letters.

    ``strands`` must exceed ``|g|`` for every letter ``g``.  The empty word
    is legal and closes to the ``strands``-component unlink.
    """

    strands: int
    letters: tuple[int, ...] = ()
    # the printed form, kept by ``parse_braid``; not a field, so equality,
    # hash and repr see only the strands and the letters
    _text = None

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

    def __str__(self) -> str:
        return format_braid(self)


_TOKEN = re.compile(r"^(?:s(\d+)(\^-1)?|(-?\d+))$")
_STRANDS = re.compile(r"^strands=(\d+)$")


def _number(digits: str, pos: int, what: str) -> int:
    """``int(digits)``, the ``what`` of token ``pos``; past int()'s digit
    limit the text is malformed, not a crash."""
    try:
        return int(digits)
    except ValueError as exc:
        count = len(digits.lstrip("-"))
        raise BraidSyntaxError(f"token {pos}: {what} has {count} digits") from exc


def _letter(tok: str, pos: int) -> int:
    """The signed generator of one token, ``pos`` its position for errors."""
    m = _TOKEN.match(tok)
    if not m:
        raise BraidSyntaxError(f"token {pos}: malformed braid token {tok!r}")
    if m.group(1) is not None:
        k = _number(m.group(1), pos, "generator index")
        g = -k if m.group(2) else k
    else:
        g = _number(m.group(3), pos, "generator index")
    if g == 0:
        raise BraidSyntaxError(f"token {pos}: generator index 0 is not allowed")
    return g


def _token(g: int) -> str:
    """The canonical token of letter g."""
    return f"s{g}" if g > 0 else f"s{-g}^-1"


def parse_braid(text: str) -> BraidWord:
    """Parse whitespace-separated braid tokens into a :class:`BraidWord`.

    Accepted tokens: ``s<k>``, ``s<k>^-1``, ``<k>``, ``-<k>``, plus an
    optional leading ``strands=<n>``.  Without the prefix the strand count
    defaults to ``1 + max |k|`` (1 for the empty word).  ``k = 0`` and
    generators out of range are rejected with the first bad token's
    position in the message.

    Each distinct token is matched once, and the token list is mapped
    through those letters.  A bad token sends the parse back to a scan in
    order, which names the first one.  Every distinct letter and the top
    column being checked, the word is built without ``BraidWord``'s
    per-letter check.  When every distinct token is already canonical
    (``s<k>`` or ``s<k>^-1``), the word keeps the re-joined tokens, with
    the ``strands=`` prefix that ``format_braid`` would add, as its printed
    form.
    """
    tokens = text.split()
    strands = None
    start = 0
    if tokens and (m := _STRANDS.match(tokens[0])):
        strands = _number(m.group(1), 1, "strand count")
        if strands < 1:
            raise BraidSyntaxError("token 1: strand count must be positive")
        start = 1
        del tokens[0]

    letter: dict[str, int] = {}
    try:
        for tok in set(tokens):
            letter[tok] = _letter(tok, 0)
    except BraidSyntaxError:
        # a scan in order names the first bad token
        for pos, tok in enumerate(tokens, start=start + 1):
            if tok not in letter:
                letter[tok] = _letter(tok, pos)
        raise
    letters = tuple(map(letter.__getitem__, tokens))

    top = max(map(abs, letter.values()), default=0)
    if strands is None:
        strands = 1 + top
    if top >= strands:
        pos, g = next((pos, g) for pos, g in enumerate(letters, start=start + 1)
                      if abs(g) >= strands)
        raise BraidSyntaxError(
            f"token {pos}: generator s{abs(g)} out of range for {strands} strands"
        )
    word = object.__new__(BraidWord)
    object.__setattr__(word, "strands", strands)
    object.__setattr__(word, "letters", letters)
    if all(tok == _token(g) for tok, g in letter.items()):
        if strands != 1 + top:
            tokens.insert(0, f"strands={strands}")
        object.__setattr__(word, "_text", " ".join(tokens))
    return word


def format_braid(word: BraidWord) -> str:
    """Canonical printed form; ``parse_braid`` round-trips it exactly.

    The ``strands=`` prefix is emitted only when the count is not implied
    by the letters.  A word that ``parse_braid`` read from canonical tokens
    prints as those tokens re-joined; any other word formats letter by
    letter.
    """
    if word._text is not None:
        return word._text
    toks = list(map(_token, word.letters))
    if word.strands != 1 + word.max_generator():
        toks.insert(0, f"strands={word.strands}")
    return " ".join(toks)


@dataclass(frozen=True)
class LinkInvariants:
    """Combinatorial data of a braid closure.

    ``linking`` lists the nonzero linking numbers as sorted triples
    ``(i, j, lk)`` with ``i < j``: ``lk`` is half the signed count of
    crossings between components ``i`` and ``j``, and every pair not
    listed has linking number 0.  ``proper`` records whether every
    component has even total linking with the union of the others.
    """

    writhe: int
    components: int
    linking: tuple[tuple[int, int, int], ...]
    proper: bool


# the closure permutation of a word on at most this many strands steps
# through ``_permutation_table``, filled on first use: a letter is one
# index into a row and one count of its transition, and the counts give
# every crossing.  The table has 1 + n!(2n - 2) transition states, 25 of 5
# slots at 3 strands; wider words step the permutation letter by letter
PERMUTATION_STRANDS = 3


@lru_cache(maxsize=None)
def _permutation_table(strands: int):
    """The closure permutation at this width as a filled
    ``automaton.Automaton`` whose states are its transitions.  State 0,
    ``(identity, 0, 0)``, enters the identity; every other state is one
    letter from one permutation, ``(perm, a * strands + b, sign)``: the
    strand at each position after the letter, strand a crossing strand b
    from the left, and the letter's sign.  Letter g (s_k at k, s_k^-1 at -k)
    is slot g of 2 * strands - 1.  ``_permutation_table.cache_clear()``
    empties every table."""
    from .automaton import Automaton   # here, so that parsing loads only this module

    def swap(state, g):
        perm, k = state[0], abs(g) - 1
        a, b = perm[k], perm[k + 1]
        return perm[:k] + (b, a) + perm[k + 2:], a * strands + b, 1 if g > 0 else -1

    table = Automaton((tuple(range(strands)), 0, 0), lambda state: state, swap, 2 * strands - 1)
    for s, _ in enumerate(table.states):     # grows as transitions are found
        for k in range(1, strands):
            table.step(s, k)
            table.step(s, -k)
    return table


def link_invariants(word: BraidWord) -> LinkInvariants:
    """Writhe, components, nonzero linking numbers and properness of the
    closure, from one pass over the word.

    A letter crossing strand ``a`` (on the left) with strand ``b`` adds its
    sign under the key ``a * strands + b``; strands are named by their
    starting positions.  At most ``PERMUTATION_STRANDS`` strands the pass
    walks ``_permutation_table`` and counts each transition it takes, and
    the counts sum the signs; wider words swap the strands of a list
    letter by letter.  The components are the cycles of the final
    ``at_pos`` (the strand at each position), numbered by their smallest
    strand.
    """
    n = word.strands
    crossed: dict[int, int] = {}
    if n <= PERMUTATION_STRANDS:
        table = _permutation_table(n)
        rows, t, times = table.rows, 0, [0] * len(table.rows)
        for g in word.letters:
            t = rows[t][g]
            times[t] += 1
        at_pos = table.states[t][0]
        for (_, key, sign), count in zip(table.states[1:], times[1:]):
            if count:
                crossed[key] = crossed.get(key, 0) + sign * count
    else:
        at_pos = list(range(n))
        for g in word.letters:
            k = abs(g) - 1
            a, b = at_pos[k], at_pos[k + 1]
            at_pos[k], at_pos[k + 1] = b, a
            key = a * n + b
            crossed[key] = crossed.get(key, 0) + (1 if g > 0 else -1)

    comp_of = [-1] * n
    ncomp = 0
    for s in range(n):
        if comp_of[s] >= 0:
            continue
        t = s
        while comp_of[t] < 0:
            comp_of[t] = ncomp
            t = at_pos[t]
        ncomp += 1

    pair_sum: dict[tuple[int, int], int] = {}   # signed crossings of components i < j
    total = [0] * ncomp      # each component's signed crossings with all others
    for key, crossings in crossed.items():
        a, b = divmod(key, n)
        ca, cb = comp_of[a], comp_of[b]
        if ca != cb:
            pair = (ca, cb) if ca < cb else (cb, ca)
            pair_sum[pair] = pair_sum.get(pair, 0) + crossings
            total[ca] += crossings
            total[cb] += crossings

    if any(crossings % 2 for crossings in pair_sum.values()):
        raise AssertionError("inter-component crossing count is odd; impossible for a closure")
    linking = tuple(sorted((i, j, crossings // 2)
                           for (i, j), crossings in pair_sum.items() if crossings))

    # a component's total linking is half its crossings with the others
    proper = all(t % 4 == 0 for t in total)
    return LinkInvariants(
        writhe=sum(crossed.values()),
        components=ncomp,
        linking=linking,
        proper=proper,
    )


class GaussSum(NamedTuple):
    """The Gauss sum G = sum over x in GF(2)^loops of (-1)^q(x) of a closure's
    mod-2 Seifert form q: 0 if ``zero``, else (-1)^negative
    2^((loops + dropped)/2).  ``dropped`` counts the loops that the
    elimination summed out alone, each giving a factor 2; ``pieces`` counts
    the surface's connected parts."""

    zero: bool
    negative: bool
    dropped: int
    loops: int
    pieces: int

    @property
    def value(self) -> int:
        """G itself."""
        if self.zero:
            return 0
        g = 1 << (self.loops + self.dropped) // 2
        return -g if self.negative else g


def lookup_arf_data(word: BraidWord) -> GaussSum:
    """The Gauss sum of the closure's Seifert form, in one pass over the word
    (``seifert.sum_loops``)."""
    from . import seifert   # here, so that parsing loads only this module

    zero, negative, dropped = seifert.sum_loops(word.strands, word.letters)
    # each column in use joins two discs into one surface piece
    used = len(set(map(abs, word.letters)))
    return GaussSum(zero, negative, dropped, len(word.letters) - used, word.strands - used)


def arf_invariant(inv: LinkInvariants, data: GaussSum) -> int:
    """Arf invariant of the closure: 1 iff its Seifert form's Gauss sum is
    negative.  Undefined (raises) for non-proper links.  A proper link of m
    components on r loops and s pieces has |G| = 2^((r - s + m)/2), the
    intersection form's radical having rank m - s, that is dropped = m - s;
    other values are a fault.
    """
    if not inv.proper:
        raise ValueError("invariant undefined: link is not proper")
    if data.zero or data.dropped != inv.components - data.pieces:
        raise AssertionError(f"Gauss sum {data.value} does not fit a proper link of "
                             f"{inv.components} components")
    return int(data.negative)


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
