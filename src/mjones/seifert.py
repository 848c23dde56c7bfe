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
first use, a letter being one lookup in its state's row.  ``_streamed``
steps wider words: it sums a loop out once no later loop can meet it, alone
or with such a neighbour, so it keeps a few loops per column.  Its caller is
``braidlang.lookup_arf_data``; this module loads on the first Gauss sum.
"""

from functools import lru_cache

from .automaton import Automaton

# words on at most this many strands run on the automaton of ``_table``, a
# letter a lookup in its state's row of 2n - 1 slots: s_k at slot k, s_k^-1
# at -k, which is slot 2n - 1 - k, so no two letters share one.  2 / 3 / 4
# strands reach 17 / 417 / 13,233 states.  22,000 words of the ``bracket``
# workload's 4-strand stratum (seed 4242) reach 13,165 states holding 7 MB;
# filling and running the table takes 0.51-0.52 s, the stream 0.47-0.53 s
# (2-core x86_64), so wider words go to ``_streamed``
TABLE_STRANDS = 3


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
    its own key and each letter its own slot of 2 * strands - 1.
    ``_table.cache_clear()`` empties every table."""
    columns = strands - 1
    start = (0,) * columns, (False,) * (columns - 1), (1,) + (0,) * ((1 << columns) - 1), 0
    return Automaton(start, lambda state: state, _transfer, 2 * strands - 1, _value)


def _streamed(strands: int, letters) -> tuple[bool, bool, int]:
    """(zero, negative, dropped) of the word's G, each loop summed out once
    no later loop can meet it and it is alone or has such a neighbour.

    Two consecutive letters of column k, at times p < t, bound a loop with
    q = 1 iff they have the same sign.  It meets the next loop of column k
    (they share the band at t) and each loop of column k +- 1 whose time
    interval interlaces with (p, t): the open loop of a neighbour column
    interlaces with (p, t) iff it opened after p.  So a loop waits in the
    ``pending`` list of each column whose open loop it meets and that has a
    letter to come (``last``, from a pre-pass), and is live until the last
    of them closes; then its slot's bit is set in ``dead``.  After each
    letter G = 2^twos * sum over x in GF(2)^slots of (-1)^(negative + Q(x)),
    Q having the slots' ``diag`` bits and ``edges``.  A dead loop a with no
    neighbours gives 2 if q_a = 0, a ``dropped`` loop, and G = 0 if q_a = 1.
    A dead loop a with a dead neighbour b goes with b: summing over x_a fixes
    x_b, leaving a factor 2 and (q_a + L_a)(q_b + L_b), L_a and L_b the sums
    over their other neighbours.  A dead loop whose neighbours are all live
    waits for one of them to die, so twos = (loops + dropped) / 2, and a few
    loops per column hold slots.  The order of these steps does not change
    G, so the loops that die on one letter share one worklist, ``todo``.
    """
    last = [-1] * (strands + 1)
    for t, g in enumerate(letters):
        last[-g if g < 0 else g] = t
    when = [-1] * (strands + 1)     # each column's last letter time; 0 and n stay -1
    sign = [0] * (strands + 1)      # that letter
    pending = [[] for _ in range(strands + 1)]
    refs, diag, edges = [], [], []   # by slot
    spare = []      # freed slots
    dead = negative = dropped = 0
    for t, g in enumerate(letters):
        k = -g if g < 0 else g
        p = when[k]
        if p >= 0:
            # the loop (p, t) of column k, in slot a
            same = (sign[k] ^ g) >= 0
            if spare:
                a = spare.pop()
                diag[a] = same
            else:
                a = len(diag)
                diag.append(same)
                edges.append(0)
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
            # the loops that die on this letter, then the dead loops a step touches
            todo = 0 if refs[a] else bit
            for b in met:
                refs[b] -= 1
                if not refs[b]:
                    todo |= 1 << b
            dead |= todo
            while todo:
                bit_a = todo & -todo
                todo ^= bit_a
                a = bit_a.bit_length() - 1
                near = edges[a]
                if not near:
                    if diag[a]:
                        return True, False, 0
                    dropped += 1
                    dead ^= bit_a
                    spare.append(a)
                    continue
                bit_b = near & dead
                if not bit_b:       # a waits for a live neighbour to die
                    continue
                bit_b &= -bit_b
                b = bit_b.bit_length() - 1
                only_a, only_b = near ^ bit_b, edges[b] ^ bit_a
                qa, qb = diag[a], diag[b]
                negative ^= qa & qb
                edges[a] = edges[b] = 0
                dead ^= bit_a | bit_b
                spare += (a, b)
                m = only_a | only_b
                todo = (todo | m) & dead
                # (q_a + L_a)(q_b + L_b) on the other neighbours c, x_c x_c = x_c
                while m:
                    bit_c = m & -m
                    m ^= bit_c
                    c = bit_c.bit_length() - 1
                    in_a, in_b = only_a & bit_c != 0, only_b & bit_c != 0
                    if in_a:
                        edges[c] ^= only_b ^ bit_a
                        diag[c] ^= qb
                    if in_b:
                        edges[c] ^= only_a ^ bit_b
                        diag[c] ^= qa ^ in_a
        when[k], sign[k] = t, g
    return False, bool(negative), dropped


def sum_loops(strands: int, letters) -> tuple[bool, bool, int]:
    """(zero, negative, dropped) of the Gauss sum of the Seifert form of the
    closure of ``letters`` on ``strands`` strands: on the automaton of
    ``_table`` at most ``TABLE_STRANDS`` strands, else by ``_streamed``."""
    if strands <= TABLE_STRANDS:
        table = _table(strands)
        return table.values[table.run(letters)]
    return _streamed(strands, letters)
