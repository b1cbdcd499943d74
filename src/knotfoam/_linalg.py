"""The one elimination engine: Bar-Natan's Gaussian elimination lemma
(arXiv:math/0606318) on the sparse matrix of one differential.

Over Z ``cancel_units`` cancels +-1 entries, so every entry stays an
int: the bulk work for Khovanov homology, Smith normal form, Lee rank
and s.  Over Q, where ``homology.reduce_complex`` finishes the Lee
complex, any nonzero entry may be the pivot, divided exactly in
``Fraction``.  One pivot rule serves both: of the entries that may be
the pivot, the one whose row is shortest, then lowest.
"""

from __future__ import annotations


def cancel_units(rows, cols, row_q, col_q, chains=(), rational=False):
    """Cancel +-1 entries d[h, g] with row_q[h] == col_q[g], in place.

    ``rows`` ({r: {c: v}}) and ``cols`` ({c: {r: v}}) hold one sparse
    matrix.  Cancelling u = d[h, g] drops row h and column g and
    subtracts d[r, g] * d[h, c] / u from every other d[r, c]; each of
    the ``chains``, indexed like the rows, goes to z - z[h] / u * (column
    g).  One pass over the columns takes in each the unit whose row is
    shortest, then lowest: on cube columns read +1 rows first, taking
    the first shortest row was measured to cancel a quarter slower.
    Columns go in ascending q, ties in reverse ``cols`` order: on Lee
    complexes this was measured to cut the fill-in, and the time,
    several-fold against plain index order.  With ``rational`` any
    nonzero entry is a unit.  Returns the (g, h) pairs.
    """
    pairs = []
    for g in sorted(reversed(list(cols)), key=col_q.__getitem__):
        col = cols[g]
        q = col_q[g]
        h = None
        for r, v in col.items():
            if (rational or v == 1 or v == -1) and row_q[r] == q:
                n = len(rows[r])
                if h is None or n < best or n == best and r < h:
                    h, best = r, n
        if h is None:
            continue
        del cols[g]
        row = rows.pop(h)
        u = row.pop(g)
        if rational and u != 1 and u != -1:
            from fractions import Fraction
            u = Fraction(1, u)  # from here on u stands for 1 / u, as +-1 do
        del col[h]
        for r in col:
            del rows[r][g]
        for c, b in row.items():
            target = cols[c]
            del target[h]
            f = u * b
            for r, a in col.items():
                w = target.get(r, 0) - a * f
                if w:
                    target[r] = rows[r][c] = w
                else:
                    del target[r], rows[r][c]
        for z in chains:
            zh = z.pop(h, 0) * u
            if zh:
                for r, a in col.items():
                    w = z.get(r, 0) - zh * a
                    if w:
                        z[r] = w
                    else:
                        del z[r]
        pairs.append((g, h))
    return pairs
