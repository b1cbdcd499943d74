"""The cube of resolutions and the graded chain complex over Z.

Each crossing is smoothed both ways, giving 2^n complete smoothings.  A
generator is a smoothing together with a {1, X} label on each of its
circles; its homological degree is (sum of the state) - n_minus and its
q-degree is (#1-labels - #X-labels) + degree + n_plus - n_minus.  The
differential flips one crossing from 0 to 1, applying the merge map m or
the split map Delta of the rank-two Frobenius algebra (X^2 = 0), with
the sign (-1)^(number of 1-coordinates before the flipped one).  The Lee
variant deforms the algebra to X^2 = 1; its extra terms raise q-degree
by exactly 4 while the undeformed part preserves it.

Labels are encoded as 0 for the unit generator and 1 for X.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .diagram import State, _smoothings, compute_signs, smooth_state
from .errors import NotAComplex, TooLarge
from .polyring import LaurentQ

KH = "Kh"
LEE = "Lee"

# merge: (label, label) -> {label: coefficient}
_MERGE_KH = {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}, (1, 1): {}}
_MERGE_LEE = {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}, (1, 1): {0: 1}}
# split: label -> {(label, label): coefficient}
_SPLIT_KH = {0: {(0, 1): 1, (1, 0): 1}, 1: {(1, 1): 1}}
_SPLIT_LEE = {0: {(0, 1): 1, (1, 0): 1}, 1: {(0, 0): 1, (1, 1): 1}}


def edge_map(kind, side):
    """The label-level merge or split map of the chosen theory."""
    if kind == "merge":
        return _MERGE_KH if side == KH else _MERGE_LEE
    if kind == "split":
        return _SPLIT_KH if side == KH else _SPLIT_LEE
    raise ValueError("kind must be 'merge' or 'split'")


class Generator(NamedTuple):
    state: tuple          # 0/1 per crossing
    circles: tuple        # canonical circle ids, sorted
    labels: tuple         # 0 (unit) or 1 (X) per circle
    hom_degree: int
    q_degree: int


class GradedChainComplex:
    """Finitely generated free chain complex with a q-degree per generator.

    ``generators[i]`` lists the degree-i generators in a fixed order and
    ``differentials[i]`` is the sparse matrix (row, col) -> entry of the
    map from degree i to degree i+1.  ``omitted_qs`` holds the q-degrees
    of the generators a build left out (see :func:`build_complex`).
    """

    def __init__(self, side, n_plus, n_minus):
        self.side = side
        self.n_plus = n_plus
        self.n_minus = n_minus
        self.generators = {}
        self.differentials = {}
        self.omitted_qs = set()

    @property
    def degrees(self):
        return sorted(self.generators)

    def dim(self, i):
        return len(self.generators.get(i, ()))

    def q_degrees(self, i):
        return [g.q_degree for g in self.generators.get(i, ())]

    def total_dim(self):
        return sum(len(v) for v in self.generators.values())

    def matrix(self, i):
        return self.differentials.get(i, {})

    def check_d_squared(self):
        # each differential is grouped by column once: as d2 at degree
        # i - 1, then carried over as d1 at degree i
        carried = {}
        for i in self.degrees:
            d1 = carried.get(i) or _by_column(self.matrix(i))
            d2 = _by_column(self.matrix(i + 1))
            carried = {i + 1: d2}
            if not d1 or not d2:
                continue
            # compose: (d2 * d1)[r, c] = sum_k d2[r, k] * d1[k, c]
            for c, col in d1.items():
                acc = {}
                for k, v in col:
                    for r, w in d2.get(k, ()):
                        acc[r] = acc.get(r, 0) + v * w
                if any(acc.values()):
                    raise NotAComplex("d o d != 0 at degree %d in q-block %d"
                                      % (i, self.q_degrees(i)[c]))
        return True


def _by_column(d):
    """A sparse matrix as column -> [(row, entry)]."""
    cols = {}
    for (r, c), v in d.items():
        cols.setdefault(c, []).append((r, v))
    return cols


def _state_tuple(mask, n):
    return tuple((mask >> j) & 1 for j in range(n))


def build_complex(pd, side=KH, max_crossings=14, degrees=None):
    """Build the Khovanov or Lee complex of a diagram, or a window of it.

    The Lee complex carries the same generators and q-degrees; its
    differential decomposes as the Khovanov part plus a part raising
    q-degree by 4.

    ``degrees``, a range (or any container) of homological degrees,
    restricts the build to the states of those degrees: only they get
    generators, and only edges between two of them get entries.  A built
    degree keeps the generator order and indices of the whole complex,
    so the result is the whole complex restricted to the window.  Every
    state's circle count still comes from the one walk of
    :func:`_smoothings`, and the q-degrees of the states left out go to
    ``omitted_qs``, so the q-levels of the whole cube stay known.
    ``None`` builds every degree.

    States are taken in binary order (crossing j is bit j) and each
    state's generators form one run of its degree's list, starting at a
    base offset: a generator's index is that base plus its labels read
    as a bitmask, the first (smallest) circle id being the most
    significant bit.  A circle the edge does not touch keeps its arcs,
    so it keeps its id and its place among the ids; its bit in the
    target follows from the bits of the touched circles on both sides.
    An edge's entries, as (column offset, row offset, entry), are
    therefore fixed by its shape: the source circle count, the bits of
    the circles at slots 0 and 2 of the crossing before it and at slots
    0 and 1 after it (the first two differ on a merge).  Each shape's
    pattern is worked out once per build, and an edge adds its base
    offsets and its sign.
    """
    n = pd.n
    if n > max_crossings:
        raise TooLarge("%d crossings exceeds limit %d" % (n, max_crossings))
    n_plus, n_minus, _ = compute_signs(pd)
    cx = GradedChainComplex(side, n_plus, n_minus)
    # per height (number of 1s in the state): is its degree built
    built = [degrees is None or h - n_minus in degrees for h in range(n + 2)]

    # per built state: the label bit of each arc's circle (arcs in the
    # order of _smoothings), the circle count and the base index
    arcs, members = _smoothings(pd)
    labelings = {}
    omitted = set()  # (degree, circle count) of the states left out
    size = len(members)
    bits, counts, base = [None] * size, [0] * size, [0] * size
    for mask, member in enumerate(members):
        h = mask.bit_count()
        i = h - n_minus
        if not built[h]:
            omitted.add((i, len(set(member)) if n else 1))
            continue
        cids = tuple(sorted(set(member))) if n else (0,)
        c = counts[mask] = len(cids)
        bucket = cx.generators.setdefault(i, [])
        bit = {cid: c - 1 - k for k, cid in enumerate(cids)}
        bits[mask] = list(map(bit.__getitem__, member))
        base[mask] = len(bucket)
        if c not in labelings:
            labelings[c] = [(labels, 2 * sum(labels))
                            for labels in itertools.product((0, 1), repeat=c)]
        st, q0 = _state_tuple(mask, n), c + i + n_plus - n_minus
        bucket.extend([Generator(st, cids, labels, i, q0 - x)
                       for labels, x in labelings[c]])
    cx.omitted_qs = {c + i + n_plus - n_minus - 2 * x
                     for i, c in omitted for x in range(c + 1)}

    maps = edge_map("merge", side), edge_map("split", side)
    at = {a: k for k, a in enumerate(arcs)}
    ends = [(at[a], at[b], at[c]) for a, b, c, _d in pd.crossings]
    patterns = {}
    # every (row, col) key takes its ints from this one list, so equal
    # indices are one object rather than one int per key
    ints = list(range(max(map(len, cx.generators.values()), default=0)))
    for mask in range(2 ** n):
        h = mask.bit_count()
        if not (built[h] and built[h + 1]):
            continue
        src, col0 = bits[mask], base[mask]
        for j, (a, b, c) in enumerate(ends):
            if mask >> j & 1:
                continue
            tgt, row0 = bits[mask | 1 << j], base[mask | 1 << j]
            shape = (counts[mask], src[a], src[c], tgt[a], tgt[b])
            pattern = patterns.get(shape)
            if pattern is None:
                pattern = patterns[shape] = _edge_pattern(shape, *maps)
            sign = -1 if (mask & ((1 << j) - 1)).bit_count() % 2 else 1
            # no (row, col) repeats: the edge fixes the target state and
            # the column fixes the source generator
            entries = cx.differentials.setdefault(h - n_minus, {})
            for dc, dr, v in pattern:
                entries[ints[row0 + dr], ints[col0 + dc]] = sign * v
    return cx


def _edge_pattern(shape, merge_map, split_map):
    """The (column offset, row offset, entry) list of an edge, sign +1.

    ``shape`` is as in :func:`build_complex`.  On a non-planar PD code a
    split can keep one circle (equal target bits), which then takes the
    second label.
    """
    c, sa, sc, ta, tb = shape
    merge = sa != sc
    c_tgt = c - 1 if merge else c + (ta != tb)
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
        outs = {(lc, lc): [(sum(lt << t for t, lt in {ta: la, tb: lb}.items()), v)
                           for (la, lb), v in m.items()]
                for lc, m in split_map.items()}
    return [(col, row + add, v) for col, row in enumerate(rows)
            for add, v in outs[col >> sa & 1, col >> sc & 1]]


def graded_euler_characteristic(cx):
    """Sum of (-1)^i q^(q-degree) over all generators."""
    total = LaurentQ.zero()
    for i, gens in cx.generators.items():
        sign = -1 if i % 2 else 1
        terms = {}
        for g in gens:
            terms[g.q_degree] = terms.get(g.q_degree, 0) + sign
        total = total + LaurentQ(terms)
    return total


def kauffman_oracle(pd, max_crossings=14):
    """Unnormalized Jones polynomial by direct state sum.

    Independent of the chain-complex machinery: walks all 2^n
    smoothings, weighting a state of height h (sum of its entries) with
    c circles by (-q)^h (q + q^-1)^c, then applies the orientation
    shift (-1)^(n_minus) q^(n_plus - 2 n_minus).  Normalized so the
    unknot gives q + q^-1.
    """
    n = pd.n
    if n > max_crossings:
        raise TooLarge("%d crossings exceeds limit %d" % (n, max_crossings))
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
