"""The cube of resolutions and the graded chain complex over Z.

Each crossing is smoothed both ways, giving 2^n complete smoothings.  A
generator is a smoothing together with a {1, X} label on each of its
circles; its homological degree is (sum of the state) - n_minus and its
q-degree is (#1-labels - #X-labels) + degree + n_plus - n_minus.  The
differential flips one crossing from 0 to 1, applying the merge map m or
the split map Delta of the U(2)-equivariant Frobenius algebra
Z[X1, X2][X]/((X - X1)(X - X2)), with the sign (-1)^(number of
1-coordinates before the flipped one).  Kh takes X1 = X2 = 0 and Lee
X1 = 1, X2 = -1; the table's e1 = X1 + X2 terms raise q-degree by 2 and
its e2 = X1 X2 terms by 4, so Lee's extra terms raise it by exactly 4.

Labels are encoded as 0 for the unit generator and 1 for X.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from operator import itemgetter
from typing import NamedTuple

from .diagram import State, _smoothings, compute_signs, smooth_state
from .errors import NotAComplex, TooLarge
from .polyring import LaurentQ

KH = "Kh"
LEE = "Lee"
MAX_CROSSINGS = 14  # the default limit of a cube build, 2^n states


def frobenius(e1, e2):
    """The merge and split maps of Z[X1, X2][X]/((X - X1)(X - X2)).

    e1 = X1 + X2 and e2 = X1 X2 are ints or ``IntPoly2``s.  ``merge`` maps
    (label, label) to {label: coefficient} and ``split`` maps a label to
    {(label, label): coefficient}; writing a (x) b as (a, b), m(X, X) =
    e1 X - e2, Delta(1) = (1, X) + (X, 1) - e1 (1, 1) and Delta(X) =
    (X, X) - e2 (1, 1).  Zero coefficients are dropped.  Sign convention:
    with the counit e(1) = 0, e(X) = 1 and the handle h = m(Delta(1)) =
    2X - e1, ``foam.evaluate_foam`` gives a closed blue surface of genus g
    with d dots (-1)^(chi/2) e(X^d h^g), chi = 2 - 2g: -e on spheres.
    """
    merge = {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}, (1, 1): {0: -e2, 1: e1}}
    split = {0: {(0, 0): -e1, (0, 1): 1, (1, 0): 1}, 1: {(0, 0): -e2, (1, 1): 1}}
    return tuple({k: {lt: v for lt, v in m.items() if v} for k, m in table.items()}
                 for table in (merge, split))


# each side's (merge, split): Kh at X1 = X2 = 0, Lee at X1 = 1, X2 = -1
_MAPS = {KH: frobenius(0, 0), LEE: frobenius(0, -1)}


class Generator(NamedTuple):
    state: tuple          # 0/1 per crossing
    circles: tuple        # canonical circle ids, sorted
    labels: tuple         # 0 (unit) or 1 (X) per circle
    hom_degree: int
    q_degree: int


class GradedChainComplex:
    """Finitely generated free chain complex with a q-degree per generator.

    ``qs[i]`` lists the q-degrees of the degree-i generators in a fixed
    order and ``differentials[i]`` is d_i, from degree i to degree i+1, as
    (plus, minus, other): per column, the tuple of its rows at +1 and at
    -1, and ``{col: {row: entry}}`` for entries that are neither, which
    cube builds never have.  ``homology.set_matrix`` is the one way in for
    a column map, :meth:`matrix` the view as one.  A cube build also sets
    ``runs`` and ``q_levels`` (see :func:`build_complex`);
    :meth:`generator` reads the former.  The residue of a reduction sets
    ``cycles``, the chains it carried.
    """

    cycles = ()

    def __init__(self, side, n_plus, n_minus):
        self.side = side
        self.n_plus = n_plus
        self.n_minus = n_minus
        self.qs = {}
        self.runs = {}
        self.differentials = {}
        self.q_levels = None

    @property
    def degrees(self):
        return sorted(self.qs)

    def q_degrees(self, i):
        return self.qs.get(i, [])

    def total_dim(self):
        return sum(len(v) for v in self.qs.values())

    def column(self, i, c):
        """Column c of d_i as a new map row -> entry."""
        if i not in self.differentials:
            return {}
        plus, minus, other = self.differentials[i]
        return {**dict.fromkeys(plus[c], 1), **dict.fromkeys(minus[c], -1),
                **other.get(c, {})}

    def matrix(self, i):
        """d_i as a new column map, with no empty column."""
        n = len(self.differentials[i][0]) if i in self.differentials else 0
        return {c: col for c in range(n) if (col := self.column(i, c))}

    def apply(self, i, chain):
        """d_i applied to a chain col -> entry: row -> entry, no zeros."""
        out = {}
        for c, coeff in chain.items():
            for r, v in self.column(i, c).items():
                out[r] = out.get(r, 0) + v * coeff
        return {k: v for k, v in out.items() if v}

    def state_run(self, i, state):
        """The indices of the degree-i generators of ``state``."""
        mask = sum(b << j for j, b in enumerate(state))
        runs = self.runs.get(i, [])
        k = bisect_left(runs, mask, key=itemgetter(1))
        if k == len(runs) or runs[k][1] != mask:
            return range(0)
        base, _mask, cids = runs[k]
        return range(base, base + (1 << len(cids)))

    def generator(self, i, k):
        """The k-th generator of degree i: its labels are the bits of k
        minus its state's base index, the first circle's the highest."""
        runs = self.runs[i]
        base, mask, cids = runs[bisect_right(runs, k, key=itemgetter(0)) - 1]
        c = len(cids)
        return Generator(_state_tuple(mask, self.n_plus + self.n_minus), cids,
                         tuple((k - base) >> (c - 1 - j) & 1 for j in range(c)),
                         i, self.qs[i][k])

    def check_d_squared(self):
        """Check d_{i+1} d_i = 0, or raise NotAComplex naming the degree and
        q-degree of the first nonzero column, in ascending degree.

        Column c of the product is sum_k d_i[k, c] * (column k of d_{i+1}).
        Where every entry met is +1 or -1, each product is +1 or -1 at one
        row, so the column is zero exactly when the rows reached with + and
        with - are equal as multisets: two sorted lists, extended by the
        sign tuples of each column k of d_{i+1}, swapped where d_i[k, c]
        is -1.  Cube builds have no other entries.  A column that meets
        one, such as a hand-built 2, is summed exactly by :meth:`apply`.
        """
        for i in self.degrees:
            if i not in self.differentials or i + 1 not in self.differentials:
                continue
            plus, minus, other = self.differentials[i]
            p2, m2, o2 = self.differentials[i + 1]
            for c, (p, m) in enumerate(zip(plus, minus)):
                pos, neg = [], []
                for k in p:
                    pos += p2[k]
                    neg += m2[k]
                for k in m:
                    pos += m2[k]
                    neg += p2[k]
                pos.sort()
                neg.sort()
                if pos == neg and c not in other and (
                        not o2 or o2.keys().isdisjoint(p + m)):
                    continue
                if self.apply(i + 1, self.column(i, c)):
                    raise NotAComplex("d o d != 0 at degree %d in q-block %d"
                                      % (i, self.q_degrees(i)[c]))
        return True


def _state_tuple(mask, n):
    return tuple((mask >> j) & 1 for j in range(n))


def build_complex(pd, side=KH, max_crossings=MAX_CROSSINGS, degrees=None):
    """Build the Khovanov or Lee complex of a diagram, or a window of it.

    The Lee complex carries the same generators and q-degrees; its
    differential decomposes as the Khovanov part plus a part raising
    q-degree by 4.

    ``degrees``, a range (or any container) of homological degrees,
    restricts the build to the states of those degrees: only they get
    generators, and only edges between two of them get entries.  A built
    degree keeps the generator order and indices of the whole complex,
    so the result is the whole complex restricted to the window.
    ``None`` builds every degree.  Either way ``q_levels`` is the range of
    q-levels of the whole cube: a state of height h with c circles has the
    q-degrees h - c .. h + c in steps of 2, plus n_plus - 2 n_minus.  On a
    planar diagram c changes by one along a cube edge, so h - c and h + c
    never fall and consecutive ranges overlap: the levels run in steps of
    2 from the all-0 state's lowest to the all-1 state's highest.

    States are taken in binary order (crossing j is bit j) and each
    state's generators form one run of its degree's list, starting at a
    base offset: a generator's index is that base plus its labels read
    as a bitmask, the first (smallest) circle id being the most
    significant bit; ``runs[i]`` holds each state's (base, mask, circle
    ids), and no generator is stored as an object.  The walk and the
    states are the diagram's, ``pd.cube`` (a :class:`_Cube`): every
    later build of the code, of either side, reads them and copies its
    lists.  The edges are the build's.  A circle the edge does not touch
    keeps its arcs, so it keeps its id and its place among the ids; its
    bit in the target follows from the bits of the touched circles on
    both sides.  An edge's entries, as (column offset, row offset, entry),
    are therefore fixed by its shape: the source circle count, the bits
    of the circles at slots 0 and 2 of the crossing before it and at
    slots 0 and 1 after it (the first two differ on a merge).  Each
    shape's pattern is worked out once per build, and an edge appends
    each entry's row, at its base offsets, to the +1 or the -1 rows of a
    source generator as entry times sign is: every entry is +1 or -1.
    Every row of degree i comes from one list of the indices 0 ..
    dim(i) - 1: one int object per index, however many entries name it.
    """
    if side not in _MAPS:
        raise ValueError("side must be 'Kh' or 'Lee', got %r" % (side,))
    n = pd.n
    if n > max_crossings:
        raise TooLarge("%d crossings exceeds limit %d" % (n, max_crossings))
    n_plus, n_minus, _ = compute_signs(pd)
    cx = GradedChainComplex(side, n_plus, n_minus)
    cube = pd.cube or _Cube(pd, n_plus - 2 * n_minus)
    object.__setattr__(pd, "cube", cube)
    cx.q_levels = cube.q_levels
    heights = [h for h in range(n + 1) if degrees is None or h - n_minus in degrees]
    index = {}  # height -> its indices 0 .. dim - 1
    for h in heights:
        runs, q_runs = cube.height(h)
        cx.runs[h - n_minus] = list(runs)
        qs = cx.qs[h - n_minus] = []
        for run in q_runs:
            qs += run
        index[h] = list(range(len(qs)))

    bits, base, ends, maps = cube.bits, cube.base, cube.ends, _MAPS[side]
    patterns = {}
    for h in heights:
        rows = index.get(h + 1)
        if rows is None:
            continue
        plus, minus = [], []
        for _col0, mask, cids in cube.height(h)[0]:
            src, c = bits[mask], len(cids)
            ps, ms = [[] for _ in range(1 << c)], [[] for _ in range(1 << c)]
            for j, (a, b, ac) in enumerate(ends):
                if mask >> j & 1:
                    continue
                tgt, row0 = bits[mask | 1 << j], base[mask | 1 << j]
                shape = (c, src[a], src[ac], tgt[a], tgt[b])
                pattern = patterns.get(shape)
                if pattern is None:
                    pattern = patterns[shape] = _edge_pattern(shape, *maps)
                sign = -1 if (mask & ((1 << j) - 1)).bit_count() % 2 else 1
                # no row repeats in a column: the edge fixes the target state
                for dc, dr, v in pattern:
                    (ps if v == sign else ms)[dc].append(rows[row0 + dr])
            plus += map(tuple, ps)
            minus += map(tuple, ms)
        cx.differentials[h - n_minus] = plus, minus, {}
    return cx


class _Cube:
    """The side-independent half of a cube build, kept on its PDCode: the
    walk of :func:`diagram._smoothings`, and per state its circle ids,
    label bits (arcs in the walk's order), base offset and q-degrees,
    filled for a height the first time a build asks for it."""

    def __init__(self, pd, shift):
        arcs, self.members = _smoothings(pd)
        at = {a: k for k, a in enumerate(arcs)}
        self.ends = [(at[a], at[b], at[c]) for a, b, c, _d in pd.crossings]
        self.shift = shift
        # the 0-crossing diagram's one state has no arcs and one circle
        self.q_levels = range(shift - (len(set(self.members[0])) or 1),
                              shift + pd.n + (len(set(self.members[-1])) or 1) + 1, 2)
        self.bits, self.base = [None] * len(self.members), [0] * len(self.members)
        self.masks = [[] for _ in range(pd.n + 1)]  # per height, ascending
        for mask in range(len(self.members)):
            self.masks[mask.bit_count()].append(mask)
        self.heights = {}
        self.q_runs = {}  # (circle count, top q) -> the q-degrees of a state

    def height(self, h):
        """(runs, each state's q-degrees) of height h, filled on first use."""
        if h not in self.heights:
            runs, q_runs, col0 = [], [], 0
            for mask in self.masks[h]:
                member = self.members[mask]
                cids = tuple(sorted(set(member))) or (0,)
                c = len(cids)
                bit = {cid: c - 1 - k for k, cid in enumerate(cids)}
                self.bits[mask] = list(map(bit.__getitem__, member))
                self.base[mask] = col0
                runs.append((col0, mask, cids))
                top = c + h + self.shift
                run = self.q_runs.get((c, top))
                if run is None:
                    run = self.q_runs[c, top] = [top - 2 * k.bit_count()
                                                 for k in range(1 << c)]
                q_runs.append(run)
                col0 += 1 << c
            self.heights[h] = runs, q_runs
        return self.heights[h]


def _edge_pattern(shape, merge_map, split_map):
    """The (column offset, row offset, entry) list of an edge, sign +1.

    ``shape`` is as in :func:`build_complex`.
    """
    c, sa, sc, ta, tb = shape
    merge = sa != sc
    c_tgt = c - 1 if merge else c + 1
    # move[s]: the target bit, as a power of two, of the untouched circle
    # at source bit s; untouched circles keep their order on both sides
    move = dict(zip([k for k in reversed(range(c)) if k not in (sa, sc)],
                    [1 << k for k in reversed(range(c_tgt)) if k not in (ta, tb)]))
    # rows[col]: the untouched circles' labels in col, at their target bits
    rows = [0]
    for k in range(c):
        rows += [r + move.get(k, 0) for r in rows]
    # outs[source labels at slots 0 and 2]: (touched target bits, entry)
    if merge:
        outs = {key: [(lt << ta, v) for lt, v in m.items()]
                for key, m in merge_map.items()}
    else:
        outs = {(lc, lc): [((la << ta) + (lb << tb), v) for (la, lb), v in m.items()]
                for lc, m in split_map.items()}
    return [(col, row + add, v) for col, row in enumerate(rows)
            for add, v in outs[col >> sa & 1, col >> sc & 1]]


def graded_euler_characteristic(cx):
    """Sum of (-1)^i q^(q-degree) over all generators."""
    total = LaurentQ.zero()
    for i in cx.degrees:
        sign = -1 if i % 2 else 1
        total = total + LaurentQ({q: sign * m
                                  for q, m in Counter(cx.q_degrees(i)).items()})
    return total


def kauffman_oracle(pd):
    """Unnormalized Jones polynomial by direct state sum.

    Independent of the chain-complex machinery: walks all 2^n
    smoothings, weighting a state of height h (sum of its entries) with
    c circles by (-q)^h (q + q^-1)^c, then applies the orientation
    shift (-1)^(n_minus) q^(n_plus - 2 n_minus).  Normalized so the
    unknot gives q + q^-1.
    """
    n = pd.n
    if n > MAX_CROSSINGS:
        raise TooLarge("%d crossings exceeds limit %d" % (n, MAX_CROSSINGS))
    n_plus, n_minus, _ = compute_signs(pd)
    circle = LaurentQ.circle()
    total = LaurentQ.zero()
    for mask in range(2 ** n):
        st = _state_tuple(mask, n)
        h = sum(st)
        c = smooth_state(pd, State(st)).circle_count
        term = (circle ** c) * ((-1) ** h)
        total = total + term.shifted(h)
    total = total * ((-1) ** n_minus)
    return total.shifted(n_plus - 2 * n_minus)
