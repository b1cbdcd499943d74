"""Integral homology of graded chain complexes.

Smith normal form over Z does all the work: for each block the kernel
rank comes from the rank of the outgoing differential, the image rank
and torsion from the incoming one.  Arithmetic is exact throughout.
Cube differentials are sparse and dominated by unit entries, so those
are eliminated sparsely first; the dense fallback then picks pivots of
smallest nonzero absolute value to slow entry growth.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import NotAComplex
from .polyring import LaurentQ


@dataclass
class SNFResult:
    invariant_factors: tuple  # nonnegative, each dividing the next
    rank: int
    left: list = None   # U with U A V = D, when requested
    right: list = None  # V


def _identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(matrix, rows=None, cols=None, with_transforms=False):
    """Invariant factors of an integer matrix.

    ``matrix`` is either a dense list of rows or a sparse dict
    ``(row, col) -> value`` (then ``rows`` and ``cols`` are required).
    Without transforms, unit entries are eliminated sparsely first; the
    leftover core (usually tiny) goes through the dense routine.
    """
    if isinstance(matrix, dict):
        if not with_transforms:
            return _sparse_snf(matrix)
        m = [[0] * cols for _ in range(rows)]
        for (r, c), v in matrix.items():
            m[r][c] = v
    else:
        m = [list(row) for row in matrix]
        rows = len(m)
        cols = len(m[0]) if m else 0
        if not with_transforms:
            entries = {}
            for r, row in enumerate(m):
                for c, v in enumerate(row):
                    if v:
                        entries[(r, c)] = v
            return _sparse_snf(entries)
    U = _identity(rows) if with_transforms else None
    V = _identity(cols) if with_transforms else None

    def row_op(i1, i2, q):
        # row i2 -= q * row i1
        r1, r2 = m[i1], m[i2]
        for j in range(cols):
            r2[j] -= q * r1[j]
        if U is not None:
            u1, u2 = U[i1], U[i2]
            for j in range(rows):
                u2[j] -= q * u1[j]

    def col_op(j1, j2, q):
        for i in range(rows):
            m[i][j2] -= q * m[i][j1]
        if V is not None:
            for i in range(cols):
                V[i][j2] -= q * V[i][j1]

    def swap_rows(i1, i2):
        m[i1], m[i2] = m[i2], m[i1]
        if U is not None:
            U[i1], U[i2] = U[i2], U[i1]

    def swap_cols(j1, j2):
        for row in m:
            row[j1], row[j2] = row[j2], row[j1]
        if V is not None:
            for row in V:
                row[j1], row[j2] = row[j2], row[j1]

    factors = []
    top = 0
    while True:
        pivot = None
        best = None
        for i in range(top, rows):
            row = m[i]
            for j in range(top, cols):
                v = row[j]
                if v and (best is None or abs(v) < best):
                    best = abs(v)
                    pivot = (i, j)
                    if best == 1:
                        break
            if best == 1:
                break
        if pivot is None:
            break
        swap_rows(top, pivot[0])
        swap_cols(top, pivot[1])

        while True:
            # clear the pivot column, re-pivoting on any smaller remainder
            dirty = False
            for i in range(top + 1, rows):
                v = m[i][top]
                if not v:
                    continue
                q = v // m[top][top]
                row_op(top, i, q)
                if m[i][top]:
                    swap_rows(top, i)
                    dirty = True
            for j in range(top + 1, cols):
                v = m[top][j]
                if not v:
                    continue
                q = v // m[top][top]
                col_op(top, j, q)
                if m[top][j]:
                    swap_cols(top, j)
                    dirty = True
            if not dirty:
                break
        # enforce divisibility: pivot must divide the remaining block
        p = m[top][top]
        offender = None
        for i in range(top + 1, rows):
            row = m[i]
            for j in range(top + 1, cols):
                if row[j] % p:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            row_op(offender, top, -1)  # fold the offending row into the pivot row
            continue
        factors.append(abs(p))
        if U is not None and p < 0:
            for j in range(cols):
                m[top][j] = -m[top][j]
            for j in range(rows):
                U[top][j] = -U[top][j]
        top += 1
        if top >= rows or top >= cols:
            break

    return SNFResult(tuple(factors), len(factors), U, V)


def _sparse_snf(entries):
    """Invariant factors via sparse elimination of unit pivots.

    Rows holding a +-1 entry are eliminated with integer row operations;
    whatever remains is small and goes through the dense pivoting
    routine.
    """
    from ._linalg import build_sparse, eliminate_units

    rows, cols = build_sparse(entries)
    units = eliminate_units(rows, cols)

    if not rows:
        return SNFResult((1,) * units, units, None, None)
    # dense fallback on the small leftover core
    row_ids = sorted(rows)
    col_ids = sorted({c for row in rows.values() for c in row})
    col_pos = {c: j for j, c in enumerate(col_ids)}
    core = [[0] * len(col_ids) for _ in row_ids]
    for i, r in enumerate(row_ids):
        for c, v in rows[r].items():
            core[i][col_pos[c]] = v
    rest = smith_normal_form(core, with_transforms=True)
    factors = (1,) * units + rest.invariant_factors
    return SNFResult(factors, units + rest.rank, None, None)


def _prime_power_orders(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            pk = 1
            while n % d == 0:
                n //= d
                pk *= d
            out.append(pk)
        d += 1
    if n > 1:
        out.append(n)
    return sorted(out)


@dataclass
class HomologyTable:
    """Betti numbers and torsion orders per (homological degree, q-degree)."""

    entries: dict = field(default_factory=dict)  # (i, q) -> (betti, [orders])

    def betti(self, i, q):
        return self.entries.get((i, q), (0, []))[0]

    def torsion(self, i, q):
        return self.entries.get((i, q), (0, []))[1]

    def total_rank(self):
        return sum(b for b, _ in self.entries.values())

    def total_torsion(self):
        return sum(len(t) for _, t in self.entries.values())

    def graded_euler(self):
        terms = {}
        for (i, q), (b, _torsion) in self.entries.items():
            if b:
                terms[q] = terms.get(q, 0) + (-1) ** i * b
        return LaurentQ(terms)

    def rows(self):
        """Sorted (i, q, betti, torsion) rows for table output."""
        return [
            (i, q, b, list(t))
            for (i, q), (b, t) in sorted(self.entries.items())
        ]


def _kh_blocks(cx):
    """Split a q-preserving complex into (q, degree) blocks.

    Returns ``dims[(i, q)]`` and sparse block matrices
    ``mats[(i, q)]`` for the differential (i, q) -> (i+1, q), with block
    row/column indices in generator order.
    """
    dims = {}
    positions = {}
    for i in cx.degrees:
        for idx, g in enumerate(cx.generators[i]):
            key = (i, g.q_degree)
            positions[(i, idx)] = (key, dims.get(key, 0))
            dims[key] = dims.get(key, 0) + 1
    mats = {}
    for i in cx.degrees:
        qs = cx.q_degrees(i)
        qs_next = cx.q_degrees(i + 1) if (i + 1) in cx.generators else []
        for (r, c), v in cx.matrix(i).items():
            if qs_next[r] != qs[c]:
                raise NotAComplex("differential does not preserve q-degree")
            key, col = positions[(i, c)]
            _, row = positions[(i + 1, r)]
            mats.setdefault(key, {})[(row, col)] = v
    return dims, mats


def integral_homology(cx):
    """Homology with integer coefficients, blockwise per (degree, q)."""
    cx.check_d_squared()
    dims, mats = _kh_blocks(cx)
    snf = {}
    for key, mat in mats.items():
        i, q = key
        rows = dims.get((i + 1, q), 0)
        cols = dims[key]
        snf[key] = smith_normal_form(mat, rows=rows, cols=cols)

    table = HomologyTable()
    for (i, q), dim in sorted(dims.items()):
        out_rank = snf[(i, q)].rank if (i, q) in snf else 0
        incoming = snf.get((i - 1, q))
        in_rank = incoming.rank if incoming else 0
        betti = dim - out_rank - in_rank
        torsion = []
        if incoming:
            for f in incoming.invariant_factors:
                if f > 1:
                    torsion.extend(_prime_power_orders(f))
        if betti or torsion:
            table.entries[(i, q)] = (betti, sorted(torsion))
    return table


def rational_betti(cx):
    """Ranks over Q per (degree, q); agrees with the integral betti."""
    table = integral_homology(cx)
    return {key: b for key, (b, _t) in table.entries.items() if b}
