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
from dataclasses import dataclass

from .diagram import State, compute_signs, smooth_state
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


@dataclass(frozen=True)
class Generator:
    state: tuple          # 0/1 per crossing
    circles: tuple        # canonical circle ids, sorted
    labels: tuple         # 0 (unit) or 1 (X) per circle
    hom_degree: int
    q_degree: int


class GradedChainComplex:
    """Finitely generated free chain complex with a q-degree per generator.

    ``generators[i]`` lists the degree-i generators in a fixed order and
    ``differentials[i]`` is the sparse matrix (row, col) -> entry of the
    map from degree i to degree i+1.
    """

    def __init__(self, side, n_plus, n_minus):
        self.side = side
        self.n_plus = n_plus
        self.n_minus = n_minus
        self.generators = {}
        self.differentials = {}

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
        for i in self.degrees:
            d1 = self.matrix(i)
            d2 = self.matrix(i + 1)
            if not d1 or not d2:
                continue
            by_col = {}
            for (r, c), v in d1.items():
                by_col.setdefault(c, []).append((r, v))
            # compose: (d2 * d1)[r, c] = sum_k d2[r, k] * d1[k, c]
            d2_by_col = {}
            for (r, c), v in d2.items():
                d2_by_col.setdefault(c, []).append((r, v))
            for c, col in by_col.items():
                acc = {}
                for k, v in col:
                    for r, w in d2_by_col.get(k, ()):
                        acc[r] = acc.get(r, 0) + v * w
                if any(acc.values()):
                    raise NotAComplex("d o d != 0 at degree %d in q-block %d"
                                      % (i, self.q_degrees(i)[c]))
        return True


def _state_tuple(mask, n):
    return tuple((mask >> j) & 1 for j in range(n))


def build_complex(pd, side=KH, max_crossings=14):
    """Build the Khovanov or Lee complex of a diagram.

    The Lee complex carries the same generators and q-degrees; its
    differential decomposes as the Khovanov part plus a part raising
    q-degree by 4.

    States are taken in binary order (crossing j is bit j) and each
    state's generators form one run of its degree's list, starting at a
    base offset: a generator's index is that base plus its labels read
    as a bitmask, the first (smallest) circle id being the most
    significant bit.  The label maps of each cube edge are worked out
    once per edge, so an entry costs a few integer operations.
    """
    n = pd.n
    if n > max_crossings:
        raise TooLarge("%d crossings exceeds limit %d" % (n, max_crossings))
    n_plus, n_minus, _ = compute_signs(pd)
    cx = GradedChainComplex(side, n_plus, n_minus)

    # per state: the circle of each arc, the label bit of each circle
    # (in circle id order) and the base index
    labelings = {}
    members, bits, base = [], [], []
    for mask in range(2 ** n):
        st = _state_tuple(mask, n)
        membership = smooth_state(pd, State(st)).membership
        cids = tuple(sorted(set(membership.values()))) if n else (0,)
        c = len(cids)
        i = sum(st) - n_minus
        bucket = cx.generators.setdefault(i, [])
        members.append(membership)
        bits.append({cid: c - 1 - k for k, cid in enumerate(cids)})
        base.append(len(bucket))
        if c not in labelings:
            labelings[c] = list(itertools.product((0, 1), repeat=c))
        q0 = c + i + n_plus - n_minus
        bucket.extend(Generator(st, cids, labels, i, q0 - 2 * sum(labels))
                      for labels in labelings[c])

    merge_map = edge_map("merge", side)
    split_map = edge_map("split", side)
    # every (row, col) key takes its ints from this one list, so equal
    # indices are one object rather than one int per key
    ints = list(range(max(len(gens) for gens in cx.generators.values())))

    for mask in range(2 ** n):
        src, src_bits, col0 = members[mask], bits[mask], base[mask]
        for j in range(n):
            if mask >> j & 1:
                continue
            tmask = mask | 1 << j
            tgt, tgt_bit, row0 = members[tmask], bits[tmask], base[tmask]
            sign = -1 if (mask & ((1 << j) - 1)).bit_count() % 2 else 1
            a, b, c, _d = pd.crossings[j]
            c1, c2 = src[a], src[c]
            # outs[k]: (target bits of the touched circles, entry) for the
            # source labels k of the touched circles
            if c1 != c2:
                # two circles merge into one
                touched = {c1: 2, c2: 1}
                tb = tgt_bit[tgt[a]]
                outs = [[(lc << tb, coeff * sign)
                         for lc, coeff in merge_map[(la, lb)].items()]
                        for la in (0, 1) for lb in (0, 1)]
            else:
                # one circle splits in two; on a non-planar PD code it can
                # stay one circle (t1 == t2), which then takes label lb
                touched = {c1: 1}
                t1, t2 = tgt[a], tgt[b]
                outs = [[(sum(lt << tgt_bit[t]
                              for t, lt in {t1: la, t2: lb}.items()),
                          coeff * sign)
                         for (la, lb), coeff in split_map[lc].items()]
                        for lc in (0, 1)]
            # per source labels L: the target bits of the untouched
            # circles (each matched through its id, an arc of the circle)
            # and the index into outs; last circle first, so that the
            # first circle ends up as the most significant bit of L
            tbits, outs_at = [0], [0]
            for cid in reversed(src_bits):
                if cid in touched:
                    step = touched[cid]
                    outs_at += [k + step for k in outs_at]
                    tbits += tbits
                else:
                    step = 1 << tgt_bit[tgt[cid]]
                    tbits += [t + step for t in tbits]
                    outs_at += outs_at
            # no (row, col) repeats: the edge fixes the target state and
            # the column fixes the source generator
            entries = cx.differentials.setdefault(mask.bit_count() - n_minus, {})
            for col, t, k in zip(ints[col0:col0 + len(tbits)], tbits, outs_at):
                for add, v in outs[k]:
                    entries[ints[row0 + t + add], col] = v
    return cx


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
