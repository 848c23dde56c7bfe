"""The Gauss sum of a braid closure's mod-2 Seifert form, as a stream over
the word.

The closure's Seifert surface has one disc per strand, one half-twisted
band per letter, and one loop per two consecutive letters of a column
(J. Collins 2016); G = sum over x in GF(2)^loops of (-1)^q(x), q the mod-2
Seifert form of the loops, is 0 or +-2^k, and its sign is (-1)^arf.  The
stream sums a loop out as soon as no later loop can meet it, so it keeps
only the live loops, about three per column, and the affine constraints
that the sums leave (Gauss sums over GF(2) by elimination, Dehaene & De Moor
2003).  At a fixed width it has finitely many states; on at most
``TABLE_STRANDS`` strands it runs as an ``automaton.Automaton`` filled on
first use, a letter being one lookup in its state's row.  Its caller is
``braidlang.lookup_arf_data``; this module loads on the first Gauss sum.
"""

import math
from functools import lru_cache

from .automaton import Automaton

# words on at most this many strands run on the automaton of ``_table``,
# a letter a lookup in its state's row: 2 / 3 strands reach 19 / 2541 states.
# At 4 strands the states pass 100,000, so wider words step every letter
TABLE_STRANDS = 3


def _bits(mask: int):
    """The positions of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class _Stream:
    """The Gauss sum of the Seifert form, each loop summed out as soon as no
    later loop can meet it.

    Two consecutive letters of column k, at times p < t, bound a loop with
    q = 1 iff they have the same sign.  It meets the next loop of column k
    (they share the band at t) and each loop of column k +- 1 whose time
    interval interlaces with (p, t): the open loop of a neighbour column
    interlaces with (p, t) iff it opened after p.  So a loop waits in the
    ``pending`` list of each column whose open loop it meets, and is live,
    in a slot, until the last of them closes.  After each letter

        G = 2^twos * sum over the live x of [rows] (-1)^(negative + Q(x)),

    Q having the slots' ``diag`` bits and ``edges``, and ``rows`` affine
    constraints in reduced echelon form: row c (slots as bits, rhs) holds
    its pivot c, which lies in no other row, and ``within[a]`` has the
    pivots of the rows holding slot a.

    Summing out x_a, with L_a the sum over a's neighbours: if x_a is in no
    row, it gives 2 [L_a = q_a], a new row, or a dropped one if it reduces
    to 0 = 0, or G = 0 if to 0 = 1.  If x_a is in a row, x_a = rhs + R there,
    and x_a (q_a + L_a) becomes (rhs + R)(q_a + L_a).  Every row is
    substituted in the end, so twos = (loops + dropped) / 2.

    ``last`` holds each column's last letter time: a loop joins the pending
    list of a column only if a letter of it is still to come, so about three
    loops per column are live, and none once the word is read.  Without it,
    as in ``_table``, every column may have letters to come.
    """

    __slots__ = ("last", "when", "sign", "pending", "refs", "diag", "edges", "within",
                 "spare", "rows", "negative", "zero", "dropped")

    def __init__(self, strands: int, last=None):
        self.last = [math.inf] * (strands + 1) if last is None else last
        self.when = [-1] * (strands + 1)     # each column's last letter time; 0 and n stay -1
        self.sign = [0] * (strands + 1)      # that letter
        self.pending = [[] for _ in range(strands + 1)]
        self.refs, self.diag, self.edges, self.within = [], [], [], []   # by slot
        self.spare = []      # freed slots
        self.rows = {}
        self.negative = self.dropped = 0
        self.zero = False

    def read(self, letters, t: int) -> None:
        """Read ``letters`` at times t, t + 1, ..., each later than every
        time read before: the one step of the stream."""
        when, sign, pending, refs, last = self.when, self.sign, self.pending, self.refs, self.last
        diag, edges, within, spare = self.diag, self.edges, self.within, self.spare
        for g in letters:
            k = -g if g < 0 else g
            p = when[k]
            if p >= 0 and not self.zero:
                # the loop (p, t) of column k, in slot a
                same = (sign[k] ^ g) >= 0
                if spare:
                    a = spare.pop()
                    diag[a] = same
                else:
                    a = len(diag)
                    diag.append(same)
                    edges.append(0)
                    within.append(0)
                    refs.append(0)
                met, bit, near = pending[k], 1 << a, 0
                for b in met:
                    edges[b] |= bit
                    near |= 1 << b
                edges[a] = near
                # a stays live while a later loop of column k or k +- 1 may meet it
                if last[k] > t:
                    pending[k] = [a]
                    refs[a] = 1
                else:
                    pending[k] = []
                if when[k - 1] > p and last[k - 1] > t:
                    pending[k - 1].append(a)
                    refs[a] += 1
                if when[k + 1] > p and last[k + 1] > t:
                    pending[k + 1].append(a)
                    refs[a] += 1
                for b in met:
                    refs[b] -= 1
                    if not refs[b]:
                        self._sum(b)
                if not refs[a]:
                    self._sum(a)
            when[k] = t
            sign[k] = g
            t += 1

    def result(self) -> tuple[bool, bool, int]:
        """(zero, negative, dropped) of G, once no loop is live."""
        return (True, False, 0) if self.zero else (False, bool(self.negative), self.dropped)

    def _sum(self, a: int) -> None:
        """Sum out the loop in slot a and free the slot."""
        diag, edges, within = self.diag, self.edges, self.within
        bit, q, near, held = 1 << a, diag[a], edges[a], within[a]
        edges[a] = 0
        m = near
        while m:
            low = m & -m
            edges[low.bit_length() - 1] ^= bit
            m ^= low
        if not held:
            self._constrain(near, q)
            self.spare.append(a)
            return
        rows = self.rows
        low = held & -held      # the row of a's pivot, if a is one
        mask, rhs = rows.pop(low.bit_length() - 1)
        m = mask
        while m:
            i = m & -m
            within[i.bit_length() - 1] ^= low
            m ^= i
        held ^= low
        # the other rows holding a; this loop and _constrain's are written out,
        # as one shared method made short words a fifth slower
        while held:
            s = held & -held
            held ^= s
            other, r = rows[s.bit_length() - 1]
            rows[s.bit_length() - 1] = (other ^ mask, r ^ rhs)
            m = mask
            while m:
                i = m & -m
                within[i.bit_length() - 1] ^= s
                m ^= i
        # x_a = rhs + R turns x_a (q + L_a) into (rhs + R)(q + L_a)
        rest = mask ^ bit
        self.negative ^= rhs & q
        m = rest
        while m:
            i = m & -m
            m ^= i
            edges[i.bit_length() - 1] ^= near & ~i
            diag[i.bit_length() - 1] ^= q ^ (near & i != 0)
        m = near
        while m:
            j = m & -m
            m ^= j
            edges[j.bit_length() - 1] ^= rest & ~j
            diag[j.bit_length() - 1] ^= rhs
        self.spare.append(a)

    def _constrain(self, mask: int, rhs: int) -> None:
        """Add the row: the sum of the slots in ``mask`` is ``rhs``."""
        rows, within = self.rows, self.within
        m = mask
        while m:
            i = m & -m
            m ^= i
            row = rows.get(i.bit_length() - 1)
            if row:
                mask ^= row[0]
                rhs ^= row[1]
        if not mask:
            if rhs:
                self.zero = True
            else:
                self.dropped += 1
            return
        low = mask & -mask
        c = low.bit_length() - 1
        held = within[c]
        while held:     # the pivot c leaves the other rows
            s = held & -held
            held ^= s
            other, r = rows[s.bit_length() - 1]
            rows[s.bit_length() - 1] = (other ^ mask, r ^ rhs)
            m = mask
            while m:
                i = m & -m
                within[i.bit_length() - 1] ^= s
                m ^= i
        rows[c] = (mask, rhs)
        m = mask
        while m:
            i = m & -m
            within[i.bit_length() - 1] ^= low
            m ^= i

    def key(self) -> tuple:
        """The state up to renaming, as a tuple of small ints: each inner
        column's rank among the last-letter times and whether its last letter
        is positive; the pending lists as bits of the live loops, named by
        first appearance; the assignments of the names where the live form is
        nonzero, and where it is -1, as bits; and ``dropped``.  () once G = 0.
        It also puts each pending list in name order, as ``_from_key`` lists
        them, so that stepping this stream or the one built from its key
        gives the same key."""
        if self.zero:
            return ()
        when, pending, edges, diag = self.when, self.pending, self.edges, self.diag
        inner = range(1, len(when) - 1)
        name, lists = {}, []
        for k in inner:
            held = 0
            for b in pending[k]:
                held |= 1 << name.setdefault(b, len(name))
            lists.append(held)
            pending[k].sort(key=name.__getitem__)    # as _from_key lists them
        # each live slot's value at every assignment of the names, as bits;
        # the rows' and Q's values are xors and ands of them
        at = dict(zip(name, _coordinates(len(name))))
        every = (1 << (1 << len(name))) - 1
        support = every
        for mask, rhs in self.rows.values():
            parity = 0
            for b, x in at.items():
                if mask >> b & 1:
                    parity ^= x
            support &= parity if rhs else every ^ parity
        minus = every if self.negative else 0
        for b, x in at.items():
            if diag[b]:
                minus ^= x
            near = edges[b]
            for c, y in at.items():
                if c < b and near >> c & 1:     # each edge once
                    minus ^= x & y
        times = sorted(when)
        return (*[times.index(when[k]) if when[k] >= 0 else -1 for k in inner],
                *[self.sign[k] > 0 for k in inner], *lists, support, minus & support,
                self.dropped)


@lru_cache(maxsize=None)
def _coordinates(live: int) -> tuple[int, ...]:
    """For each of ``live`` names, the assignments x of them (name i as bit i)
    where it is 1, as bits."""
    return tuple(sum(1 << x for x in range(1 << live) if x >> i & 1) for i in range(live))


@lru_cache(maxsize=None)
def _live_form(live: int, support: int, minus: int) -> tuple:
    """(rows, within, diag, edges, negative) of a stream on slots 0 .. live-1
    whose live form is nonzero at the assignments in ``support`` and -1 at
    those in ``minus``, as ``key`` gives them."""
    s = _Stream(0)
    s.refs, s.diag, s.edges, s.within = [0] * live, [0] * live, [0] * live, [0] * live
    at = _coordinates(live)
    for w in range(1, 1 << live):     # the rows: each w . x constant on the support
        parity = 0
        for i in _bits(w):
            parity ^= at[i]
        if parity & support in (0, support):
            s._constrain(w, int(parity & support != 0))
    # Q on the slots that are no pivot, from the signs at 0, e_i and e_i + e_j
    free = [i for i in range(live) if i not in s.rows]
    free_bits = sum(1 << i for i in free)
    sign = {x & free_bits: minus >> x & 1 for x in _bits(support)}
    for i in free:
        s.diag[i] = sign[1 << i] ^ sign[0]
        for j in free:
            if j > i and sign[1 << i | 1 << j] ^ sign[1 << i] ^ sign[1 << j] ^ sign[0]:
                s.edges[i] |= 1 << j
                s.edges[j] |= 1 << i
    return tuple(s.rows.items()), tuple(s.within), tuple(s.diag), tuple(s.edges), sign[0]


def _from_key(key: tuple, strands: int) -> _Stream:
    """A stream in the state ``key`` names, every column with letters to come."""
    s = _Stream(strands)
    if not key:
        s.zero = True
        return s
    c = strands - 1
    s.when[1:strands] = key[:c]
    s.sign[1:strands] = [1 if up else -1 for up in key[c:2 * c]]
    live = 0
    for k, held in enumerate(key[2 * c:3 * c], 1):
        live |= held
        s.pending[k] = list(_bits(held))
    live = live.bit_length()
    rows, within, diag, edges, s.negative = _live_form(live, key[3 * c], key[3 * c + 1])
    s.rows, s.within, s.diag, s.edges = dict(rows), list(within), list(diag), list(edges)
    s.refs = [0] * live
    for held in s.pending:
        for b in held:
            s.refs[b] += 1
    s.dropped = key[-1]
    return s


@lru_cache(maxsize=None)
def _finished(support: int, minus: int, dropped: int) -> tuple[bool, bool, int]:
    """(zero, negative, dropped) once the live loops are summed out too.  The
    live form sums to G' = (nonzero assignments) - 2 (-1 assignments); if
    G' = +-2^f, summing them out drops 2f - log2 |support| more constraints."""
    g = support.bit_count() - 2 * minus.bit_count()
    if not g:
        return True, False, 0
    f, log_support = abs(g).bit_length() - 1, support.bit_count().bit_length() - 1
    return False, g < 0, dropped + 2 * f - log_support


@lru_cache(maxsize=None)
def _table(strands: int):
    """The stream at this width as an ``automaton.Automaton`` over its keys,
    each state's value (zero, negative, dropped) of the word's G.  A miss
    steps the stream it left last, if it ends there, else one built from the
    key.  ``_table.cache_clear()`` empties every table."""
    recent = {}     # the latest miss's key -> its stream, stepped again without decoding

    def step(key, g):
        s = recent.pop(key, None) or _from_key(key, strands)
        s.read((g,), max(s.when) + 1)
        after = s.key()
        recent.clear()
        recent[after] = s
        return after

    return Automaton(_Stream(strands).key(), lambda key: key, step,
                     lambda key: _finished(*key[-3:]) if key else (True, False, 0))


def _streamed(strands: int, letters) -> tuple[bool, bool, int]:
    """(zero, negative, dropped) of the word's G, the stream stepping every
    letter after one pre-pass finds each column's last letter."""
    last = [-1] * (strands + 1)
    for t, g in enumerate(letters):
        last[-g if g < 0 else g] = t
    s = _Stream(strands, last)
    s.read(letters, 0)
    return s.result()


def sum_loops(strands: int, letters) -> tuple[bool, bool, int]:
    """(zero, negative, dropped) of the Gauss sum of the Seifert form of the
    closure of ``letters`` on ``strands`` strands: on the automaton of
    ``_table`` at most ``TABLE_STRANDS`` strands, else by ``_streamed``."""
    if strands <= TABLE_STRANDS:
        table = _table(strands)
        return table.values[table.run(letters)]
    return _streamed(strands, letters)
