"""Small exact linear algebra helpers on sparse integer matrices.

``cancel_units`` is the one elimination engine behind Khovanov homology
over Z, Smith normal form, Lee rank and s: Bar-Natan's Gaussian
elimination lemma (arXiv:math/0606318) on one differential.
``RowBasis`` is the echelon basis behind the rank and span questions
over Q of the Lee filtered reduction; vectors are sparse
``{coordinate: integer}`` dicts, kept integral and gcd-reduced.
"""

from __future__ import annotations

from math import gcd


def _normalize(vec):
    g = 0
    for v in vec.values():
        g = gcd(g, abs(v))
        if g == 1:
            return vec
    if g > 1:
        return {k: v // g for k, v in vec.items()}
    return vec


class RowBasis:
    """Incremental echelon basis; each row's pivot is its lowest coordinate."""

    def __init__(self):
        self.pivots = {}  # pivot coordinate -> gcd-reduced vector

    def reduce(self, vec):
        """Subtract basis rows until the lowest coordinate is no pivot."""
        vec = {k: v for k, v in vec.items() if v}
        while vec:
            p = min(vec)
            basis_row = self.pivots.get(p)
            if basis_row is None:
                break
            b = basis_row[p]
            if b not in (1, -1):
                # scale so the pivot cancels over the integers
                vec = {k: v * b for k, v in vec.items()}
            f = vec[p] // b
            for k, v in basis_row.items():
                w = vec.get(k, 0) - f * v
                if w:
                    vec[k] = w
                else:
                    del vec[k]
            if b not in (1, -1):
                vec = _normalize(vec)
        return _normalize(vec)

    def add(self, vec):
        """Insert ``vec`` unless the basis already spans it."""
        vec = self.reduce(vec)
        if vec:
            self.pivots[min(vec)] = vec

    @property
    def rank(self):
        return len(self.pivots)


def cancel_units(rows, cols, row_q, col_q, chains=()):
    """Cancel +-1 entries d[h, g] with row_q[h] == col_q[g], in place.

    ``rows`` ({r: {c: v}}) and ``cols`` ({c: {r: v}}) hold one sparse
    matrix.  Cancelling u = d[h, g] drops row h and column g and
    subtracts d[r, g] * u * d[h, c] from every other d[r, c]; each of
    the ``chains``, indexed like the rows, goes to z - z[h] * u * (column
    g).  One pass over the columns takes in each the unit whose row is
    shortest.  Columns go in ascending q, ties in reverse ``cols`` order:
    on Lee complexes this was measured to cut the fill-in, and the time,
    several-fold against plain index order.  Returns the (g, h) pairs.
    """
    pairs = []
    for g in sorted(reversed(list(cols)), key=col_q.__getitem__):
        col = cols[g]
        q = col_q[g]
        h = None
        for r, v in col.items():
            if (v == 1 or v == -1) and row_q[r] == q and (
                    h is None or len(rows[r]) < len(rows[h])):
                h = r
        if h is None:
            continue
        del cols[g]
        row = rows.pop(h)
        u = row.pop(g)
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
