"""Small exact linear algebra helpers on sparse integer matrices.

Vectors are sparse ``{coordinate: integer}`` dicts.  ``RowBasis`` is
the echelon basis behind every rank and span question over Q (the Lee
filtered reduction); scaling by a nonzero rational never matters there,
so its rows stay integral and gcd-reduced.  ``eliminate_units`` serves
Smith normal form over Z only: cube differentials are dominated by +-1
entries, which it eliminates sparsely (shortest rows first) with
integer row operations, leaving a small core for the dense routine.
"""

from __future__ import annotations

import heapq
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


def build_sparse(entries):
    """Row and column dictionaries of a sparse matrix ``{(r, c): v}``."""
    rows = {}
    cols = {}
    for (r, c), v in entries.items():
        if v:
            rows.setdefault(r, {})[c] = v
            cols.setdefault(c, {})[r] = v
    return rows, cols


def eliminate_units(rows, cols):
    """Destructively eliminate rows via +-1 pivots; returns their count.

    Uses integer row operations only, so the remaining rows span the
    same row space over Q as the original matrix modulo the eliminated
    pivots.  Rows are taken shortest first through a lazy heap.
    """
    heap = [(len(row), r) for r, row in rows.items()]
    heapq.heapify(heap)
    units = 0
    while heap:
        ln, r0 = heapq.heappop(heap)
        row = rows.get(r0)
        if row is None or len(row) != ln:
            continue
        c0 = None
        best = None
        for c, v in row.items():
            if v in (1, -1):
                cl = len(cols[c])
                if best is None or cl < best:
                    best = cl
                    c0 = c
        if c0 is None:
            continue
        v0 = row[c0]
        pivot_row = dict(row)
        for r in list(cols[c0]):
            if r == r0:
                continue
            target = rows[r]
            f = target[c0] * v0
            for c, w in pivot_row.items():
                cur = target.get(c, 0) - f * w
                if cur:
                    target[c] = cur
                    cols[c][r] = cur
                else:
                    target.pop(c, None)
                    cols[c].pop(r, None)
            if target:
                heapq.heappush(heap, (len(target), r))
            else:
                del rows[r]
        for c in pivot_row:
            cols[c].pop(r0, None)
            if not cols[c]:
                del cols[c]
        del rows[r0]
        units += 1
    return units
