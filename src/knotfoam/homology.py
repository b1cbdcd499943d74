"""Integral homology of graded chain complexes, by Gaussian elimination.

:func:`reduce_complex` does the bulk work for Khovanov homology over Z,
Lee rank and s: the elimination lemma of Bar-Natan ("Fast Khovanov
homology computations", arXiv:math/0606318), one differential at a time
in ascending degree, cancels +-1 entries between generators of equal
q-degree.  Such an entry is an isomorphism that keeps the q-filtration,
so the residue is filtered homotopy equivalent to the input (as in
Schuetz, "A fast algorithm for calculating s-invariants", Glasgow Math.
J. 2021).  No entry lowers q and fill-in adds the q-jumps of the entries
it combines, so the q-preserving part of the residue is the reduced
Khovanov complex over Z, from the Khovanov or the Lee complex alike.
The reduction either leaves its input as it is, copying each column it
cancels in, or, with ``consume``, owns the input's differentials and
cancels in them in place; only a caller that built the complex itself
hands it over.  Smith normal form, the same cancellation on one matrix,
finishes its small (degree, q) blocks; only invariant factors are
computed.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from math import gcd

from ._linalg import cancel_units
from .errors import NotAComplex
from .khovanov import KH, GradedChainComplex
from .polyring import LaurentQ


@dataclass
class SNFResult:
    invariant_factors: tuple  # nonnegative, each dividing the next
    rank: int


def _core_factors(m):
    """Invariant factors of a dense integer matrix (list of rows).

    Each step clears the row and column of an entry of smallest absolute
    value by division with remainder; a remainder is the next, smaller
    pivot, a pivot left alone is split off.  Trading pairs of the
    diagonal for gcd and lcm then gives a divisibility chain.
    """
    diagonal = []
    while any(any(row) for row in m):
        _, i, j = min((abs(v), i, j) for i, row in enumerate(m)
                      for j, v in enumerate(row) if v)
        p = m[i][j]
        for k, row in enumerate(m):
            if k != i and row[j]:
                f = row[j] // p
                m[k] = [a - f * b for a, b in zip(row, m[i])]
        quotients = [v // p if c != j else 0 for c, v in enumerate(m[i])]
        for k, row in enumerate(m):
            if row[j]:
                m[k] = [a - f * row[j] for a, f in zip(row, quotients)]
        if sum(map(bool, m[i])) == 1 and sum(bool(row[j]) for row in m) == 1:
            diagonal.append(abs(p))
            del m[i]
            for row in m:
                del row[j]
    for a in range(len(diagonal)):
        for b in range(a + 1, len(diagonal)):
            g = gcd(diagonal[a], diagonal[b])
            diagonal[a], diagonal[b] = g, diagonal[a] * diagonal[b] // g
    return tuple(diagonal)


def smith_normal_form(entries):
    """Invariant factors of a sparse integer matrix ``{(r, c): v}``.

    As a two-term complex in one q-degree, each cancelled +-1 entry is a
    factor 1; the small rest goes through the dense routine.
    """
    rows, cols = {}, {}
    for (r, c), v in entries.items():
        if v:
            rows.setdefault(r, {})[c] = v
            cols.setdefault(c, {})[r] = v
    units = len(cancel_units(rows, cols, dict.fromkeys(rows, 0),
                             dict.fromkeys(cols, 0)))
    left = sorted({c for row in rows.values() for c in row})
    rest = _core_factors([[row.get(c, 0) for c in left]
                          for row in rows.values() if row])
    return SNFResult((1,) * units + rest, units + len(rest))


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


class Residue(GradedChainComplex):
    """What :func:`reduce_complex` leaves: the q-degrees the input
    reported for the surviving generators, the reduced differentials, and
    the carried ``cycles``."""


def reduce_complex(cx, window=None, cycles=(), rational=False,
                   consume=False):
    """The residue of Gaussian elimination on ``cx``, or on its degrees in
    the range ``window``, holding one differential's row and column maps
    at a time; the residue's differentials are column maps too.
    ``cycles`` are (degree, chain) pairs in the window, carried through
    every cancellation into ``residue.cycles``.  An entry that lowers q,
    or in a Khovanov complex changes it, is NotAComplex.

    Two ownership modes.  By default ``cx`` is left as it is: every
    column read is copied before it is cancelled in.  With ``consume``
    the reduction owns ``cx``'s differentials: ``cx`` is left with none,
    each d_i is released as it is read and its columns are cancelled in
    place, so the peak holds no second copy of the cube.  Only a caller
    that built ``cx`` itself and reads no differential of it afterwards
    should consume; ``cx`` keeps its q-degrees, runs and q-levels.

    With ``rational`` each d_i is then cancelled over Q, smallest q-jump
    first, until it is empty: the E-infinity page (see ``lee``).
    """
    degrees = [i for i in cx.degrees if window is None or i in window]
    take = cx.differentials.get
    if consume:
        take, cx.differentials = cx.differentials.pop, {}
    res = Residue(cx.side, cx.n_plus, cx.n_minus)
    chains = [(i, dict(chain)) for i, chain in cycles]
    dead = set()  # generators of degree i cancelled by d_{i-1}
    above = {}    # what is left of d_{i-1}, its columns renumbered
    for i in degrees:
        qs, qn = cx.q_degrees(i), cx.q_degrees(i + 1)
        rows, cols = {}, {}
        for c, col in (take(i, {}) if i != degrees[-1] else {}).items():
            if c in dead:
                continue
            q = qs[c]
            for r, v in col.items():
                if qn[r] != q and (cx.side == KH or qn[r] < q):
                    raise NotAComplex("d_%d sends q-degree %d to q-degree %d"
                                      % (i, q, qn[r]))
                rows.setdefault(r, {})[c] = v
            cols[c] = col if consume else dict(col)
        targets = [z for j, z in chains if j == i + 1]
        pairs = cancel_units(rows, cols, qn, qs, targets)
        while rational and any(cols.values()):
            jump = min(qn[r] - qs[c] for c, col in cols.items() for r in col)
            pairs += cancel_units(rows, cols, {r: qn[r] - jump for r in rows},
                                  qs, targets, rational=True)
        dead.update(g for g, _h in pairs)
        keep = [k for k in range(len(qs)) if k not in dead]
        new = {k: n for n, k in enumerate(keep)}
        res.qs[i] = [qs[k] for k in keep]
        if i != degrees[0]:
            left = ((c, {new[r]: v for r, v in col.items() if r in new})
                    for c, col in above.items())
            res.differentials[i - 1] = {c: col for c, col in left if col}
        above = {new[c]: col for c, col in cols.items() if col}
        chains = [(j, {new[k]: v for k, v in z.items() if k in new})
                  if j == i else (j, z) for j, z in chains]
        dead = {h for _g, h in pairs}
    res.cycles = chains
    return res


def homology_table(res):
    """Integral homology of the q-preserving (degree, q) blocks of a
    residue: ranks out of and into each block, torsion from the latter."""
    snf = {}
    for i in res.degrees:
        qs, qn = res.q_degrees(i), res.q_degrees(i + 1)
        blocks = {}
        for c, col in res.matrix(i).items():
            for r, v in col.items():
                if qn[r] == qs[c]:
                    blocks.setdefault(qs[c], {})[(r, c)] = v
        for q, block in blocks.items():
            snf[(i, q)] = smith_normal_form(block)
    dims = Counter((i, q) for i in res.degrees for q in res.q_degrees(i))
    none = SNFResult((), 0)
    table = HomologyTable()
    for (i, q), dim in sorted(dims.items()):
        incoming = snf.get((i - 1, q), none)
        betti = dim - snf.get((i, q), none).rank - incoming.rank
        torsion = sorted(p for f in incoming.invariant_factors
                         for p in _prime_power_orders(f))
        if betti or torsion:
            table.entries[(i, q)] = (betti, torsion)
    return table


def integral_homology(cx):
    """Homology with integer coefficients of a Khovanov or Lee complex,
    blockwise per (degree, q)."""
    cx.check_d_squared()
    return homology_table(reduce_complex(cx))
