"""The Gauss sum of a braid closure's mod-2 Seifert form, in one pass over
the word.

The closure's Seifert surface has one disc per strand, one half-twisted
band per letter, and one loop per two consecutive letters of a column
(J. Collins 2016); G = sum over x in GF(2)^loops of (-1)^q(x), q the mod-2
Seifert form of the loops, is 0 or +-2^k, and its sign is (-1)^arf.

A new loop of column k meets the live loops only through their sum l_k over
the loops its column is waiting on.  So on at most ``TABLE_STRANDS``
strands the pass steps the live form pushed onto the n - 1 column
functionals: Phi(l) sums (-1)^q over the assignments of the live loops that
give the functionals the values l (Gauss sums over GF(2), Dehaene & De Moor
2003).  With each column's last sign and which of two neighbouring columns
moved last, that is a state that is its own key, and finitely many at a
fixed width, so ``_table`` runs it as an ``automaton.Automaton`` filled on
first use, a letter being one lookup in its state's row.  Wider words step
``_Stream``, which sums a loop out as soon as no later loop can meet it, so
it keeps only the live loops, about three per column, and the affine
constraints that the sums leave.  Its caller is
``braidlang.lookup_arf_data``; this module loads on the first Gauss sum.
"""

from functools import lru_cache

from .automaton import Automaton

# words on at most this many strands run on the automaton of ``_table``, a
# letter a lookup in its state's row: 2 / 3 / 4 strands reach 17 / 417 /
# 13,233 states.  At 4 strands 22,000 seeded 11-13-letter words reach 13,163
# states, which hold 9 MB and spend as long on misses as the stream spends on
# every letter, so wider words step the stream
TABLE_STRANDS = 3


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
    loops per column are live, and none once the word is read.
    """

    __slots__ = ("last", "when", "sign", "pending", "refs", "diag", "edges", "within",
                 "spare", "rows", "negative", "zero", "dropped")

    def __init__(self, strands: int, last):
        self.last = last
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


def _transfer(state, g):
    """The state after letter g.  A state is (signs, later, phi, d): each
    column's last sign, 0 while unused; later[i], whether column i + 2 moved
    after column i + 1; Phi, with l_k as bit k - 1 and entries 0 and +-1;
    and d, so that G = 2^((d + loops)/2) sum(Phi).  A repeat letter of column
    k closes a loop x_a that meets just the live loops summing to l_k, so
    Phi'(l') is the sum over l_k of Phi(l) (-1)^(l'_k (q + l_k)), q = 1 iff
    the signs agree, where l is l' but at k (summed) and at a neighbour that
    moved after k, which holds l' + l'_k there as x_a waits for its next
    loop.  Then Phi is halved while every entry is even, d gaining 2.  Each
    step is invertible on Phi, so Phi never vanishes."""
    signs, later, phi, d = state
    i = (g if g > 0 else -g) - 1
    sign = 1 if g > 0 else -1
    if signs[i]:
        bit = spread = 1 << i
        if i and not later[i - 1]:
            spread |= bit >> 1
        if i < len(later) and later[i]:
            spread |= bit << 1
        same = signs[i] == sign
        new = []
        for ell in range(len(phi)):
            if ell & bit:
                low = ell ^ spread     # l at k + 1 and k - 1, with l_k = 0
                v = phi[low] - phi[low | bit]
                new.append(-v if same else v)
            else:
                new.append(phi[ell] + phi[ell | bit])
        d -= 1
        while not any(v & 1 for v in new):
            new = [v >> 1 for v in new]
            d += 2
        phi = tuple(new)
    flags = list(later)
    if i:
        flags[i - 1] = True
    if i < len(flags):
        flags[i] = False
    return signs[:i] + (sign,) + signs[i + 1:], tuple(flags), phi, d


def _value(state) -> tuple[bool, bool, int]:
    """(zero, negative, dropped) of G, from d and the sum of Phi."""
    total = sum(state[2])
    if not total:
        return True, False, 0
    return False, total < 0, state[3] + 2 * (abs(total).bit_length() - 1)


@lru_cache(maxsize=None)
def _table(strands: int) -> Automaton:
    """``_transfer`` at this width as an ``automaton.Automaton``, each state
    its own key.  ``_table.cache_clear()`` empties every table."""
    columns = strands - 1
    start = (0,) * columns, (False,) * (columns - 1), (1,) + (0,) * ((1 << columns) - 1), 0
    return Automaton(start, lambda state: state, _transfer, _value)


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
