"""The Lee complex, its filtration, and the s-invariant.

The Lee differential is the Khovanov one deformed by X^2 = 1; the
deformation strictly raises the q-degree by 4, so the q-degrees of the
undeformed theory induce a descending filtration F^j = span of
generators with q-degree >= j, preserved by the differential.  The
homology has rank 2^(number of link components); for a knot the two
classes sit at the oriented resolution, generated by labelling every
circle with a = 1 + X or b = 1 - X.  The two filtration jump levels of
a knot differ by exactly 2, and the s-invariant is the midpoint.

The filtration is read off one filtered, persistence-style column
reduction per differential.  The columns of d_i go in from the highest
q down, each reduced until its lowest coordinate, in the (q, index)
order of degree i + 1, is a new pivot.  The rank reached after level j
is the rank of d_i on F^j, so dim(Z_i cap F^j) is the number of
degree-i generators with q >= j minus that rank.  Every nonzero
boundary has a pivot as its lowest coordinate, so dim(B_{i+1} cap F^j)
is the number of pivots with q >= j.  The difference of the two is the
rank of the image of H(F^j) -> H(C) in that degree.  A class reduced
against the pivots of d_{i-1} keeps a lowest coordinate that no
boundary can cancel, and its q is the filtration degree of the class.
The same reduction gives every Lee rank: the rank of d_i over Q, behind
the Betti numbers and :func:`lee_rank`, is its rank at the lowest level.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from ._linalg import RowBasis
from .diagram import compute_signs, link_components, oriented_state
from .errors import NotACycle, NotAKnot, PropositionViolated, RankMismatch
from .khovanov import LEE, build_complex


def build_lee(pd, max_crossings=14):
    """The Lee complex of a diagram (generators and q-degrees as in Kh)."""
    return build_complex(pd, LEE, max_crossings=max_crossings)


def lee_homology_betti(fc):
    """Rational betti number of the Lee homology per homological degree.

    The rank of each d_i is that of its filtered reduction at the lowest
    q-level, where every column has gone in.
    """
    lowest = _levels(fc)[:1]
    ranks = {i: _reduce(fc, i, lowest)[0].rank for i in fc.degrees}
    out = {}
    for i in fc.degrees:
        b = fc.dim(i) - ranks[i] - ranks.get(i - 1, 0)
        if b:
            out[i] = b
    return out


def lee_rank(fc, components):
    """Total Lee homology rank; must equal 2**components."""
    total = sum(lee_homology_betti(fc).values())
    expected = 2 ** components
    if total != expected:
        raise RankMismatch(
            "Lee homology has rank %d, expected %d" % (total, expected)
        )
    return total


@dataclass(frozen=True)
class LeeClass:
    """A Lee cycle written in the generator basis of one degree."""

    hom_degree: int
    chain: dict  # generator index -> integer coefficient


def _apply(matrix, chain):
    out = {}
    for (r, c), v in matrix.items():
        coeff = chain.get(c)
        if coeff:
            out[r] = out.get(r, 0) + v * coeff
    return {k: v for k, v in out.items() if v}


def oriented_resolution_generators(pd, fc=None):
    """The two generating cycles at the oriented resolution.

    Each circle of the oriented smoothing carries one of the idempotent
    labels a = 1 + X, b = 1 - X.  Written in the product basis a circle
    labelled with sign eps contributes the factor (1 + eps*X), and the
    cycle condition forces circles that share a crossing to carry
    opposite signs: a merge of (1 + X) with (1 - X) dies because
    (1+X)(1-X) = 1 - X^2 = 0 in the deformed algebra.  The sign pattern
    exists because two circles joined by a crossing never coincide and
    the circle adjacency graph is bipartite; s_a roots the smallest
    circle at +1 and s_b is its complement.  Both chains are verified to
    be Lee cycles.
    """
    if fc is None:
        fc = build_lee(pd)
    st = oriented_state(pd).assignment
    n_plus, n_minus, _ = compute_signs(pd)
    degree = sum(st) - n_minus
    epsilon = _alternating_signs(pd, st)

    chain_a = {}
    chain_b = {}
    for idx, g in enumerate(fc.generators[degree]):
        if g.state != st:
            continue
        coeff = 1
        for cid, label in zip(g.circles, g.labels):
            if label:
                coeff *= epsilon[cid]
        chain_a[idx] = coeff
        chain_b[idx] = coeff * (-1) ** sum(g.labels)
    for name, chain in (("s_a", chain_a), ("s_b", chain_b)):
        if _apply(fc.matrix(degree), chain):
            raise NotACycle("%s is not a Lee cycle" % name)
    return LeeClass(degree, chain_a), LeeClass(degree, chain_b)


def _alternating_signs(pd, state_tuple):
    """Signs +-1 per oriented-resolution circle, opposite across crossings."""
    from .diagram import State, smooth_state

    res = smooth_state(pd, State(state_tuple))
    circles = sorted(set(res.membership.values())) if pd.n else [0]
    adj = {c: set() for c in circles}
    for (a, _b, c, _d) in pd.crossings:
        u, v = res.membership[a], res.membership[c]
        if u == v:
            raise NotACycle("a crossing joins an oriented-resolution "
                            "circle to itself")
        adj[u].add(v)
        adj[v].add(u)
    epsilon = {}
    for root in circles:
        if root in epsilon:
            continue
        epsilon[root] = 1
        queue = [root]
        while queue:
            cur = queue.pop(0)
            for nxt in sorted(adj[cur]):
                if nxt in epsilon:
                    if epsilon[nxt] != -epsilon[cur]:
                        raise NotACycle("oriented-resolution circles admit "
                                        "no alternating sign pattern")
                else:
                    epsilon[nxt] = -epsilon[cur]
                    queue.append(nxt)
    return epsilon


def _levels(fc):
    """The q-levels where the filtration can jump, and one above the top."""
    qs = sorted({q for i in fc.degrees for q in fc.q_degrees(i)})
    return qs + [qs[-1] + 1]


def _positions(qs):
    """Each generator's position in the (q, index) order of its degree."""
    order = sorted(range(len(qs)), key=qs.__getitem__)
    return {r: p for p, r in enumerate(order)}


def _reduce(fc, i, keys):
    """The filtered reduction of d_i described in the module docstring.

    Returns its echelon basis of im d_i and, for each level j in
    ``keys``, the rank of d_i on the generators of q-degree >= j.
    """
    qs = fc.q_degrees(i)
    position = _positions(fc.q_degrees(i + 1))
    columns = {}
    for (r, c), v in fc.matrix(i).items():
        columns.setdefault(c, {})[position[r]] = v
    pending = sorted(range(len(qs)), key=qs.__getitem__)
    basis = RowBasis()
    ranks = {}
    for j in reversed(keys):
        while pending and qs[pending[-1]] >= j:
            col = columns.get(pending.pop())
            if col:
                basis.add(col)
        ranks[j] = basis.rank
    return basis, ranks


def _degree_profile(fc, i, keys, boundaries, ranks):
    """dim(Z cap F^j) - dim(B cap F^j) in degree i, for each j in keys.

    ``boundaries`` is the basis from the reduction of d_{i-1}, ``ranks``
    the level ranks from the reduction of d_i.
    """
    qs = sorted(fc.q_degrees(i))
    pivot_qs = sorted(qs[p] for p in boundaries.pivots)
    return {j: len(qs) - bisect_left(qs, j) - ranks[j]
            - len(pivot_qs) + bisect_left(pivot_qs, j) for j in keys}


def _class_degree(fc, cls, boundaries, top):
    """The q of the lowest coordinate left after reducing by boundaries."""
    qs = fc.q_degrees(cls.hom_degree)
    position = _positions(qs)
    rest = boundaries.reduce({position[r]: v for r, v in cls.chain.items()})
    return sorted(qs)[min(rest)] if rest else top


def filtration_profile(fc):
    """Rank of the image of H(F^j) -> H(C) for each level j.

    F^j is spanned by the generators of q-degree >= j; the profile sums
    the filtered reductions of all homological degrees, so links are
    covered too.
    """
    keys = _levels(fc)
    out = dict.fromkeys(keys, 0)
    boundaries = RowBasis()  # nothing maps into the lowest degree
    for i in range(fc.degrees[0], fc.degrees[-1] + 1):
        basis, ranks = _reduce(fc, i, keys)
        for j, r in _degree_profile(fc, i, keys, boundaries, ranks).items():
            out[j] += r
        boundaries = basis
    return out


def class_filtration_degree(fc, cls):
    """Largest level j with [cls] in the image of H(F^j) -> H(C).

    The class is represented by a cycle z; [z] lies in that image iff
    z = z' + d(w) with z' supported in F^j.
    """
    keys = _levels(fc)
    boundaries = _reduce(fc, cls.hom_degree - 1, keys)[0]
    return _class_degree(fc, cls, boundaries, keys[-2])


def s_invariant(pd, max_crossings=14, fc=None):
    """The s-invariant of a knot diagram, with its structural checks.

    ``fc`` is the Lee complex of ``pd`` when the caller has built it
    already.  Only the oriented-resolution degree is reduced, and its
    Lee rank must be 2; the rank over all degrees is :func:`lee_rank`.
    Returns ``(s, detail)`` where detail records s_min, s_max, the
    filtration profile and the filtration degrees of [s_a], [s_b].
    """
    if link_components(pd) != 1:
        raise NotAKnot("the s-invariant needs a one-component diagram")
    if fc is None:
        fc = build_lee(pd, max_crossings=max_crossings)
    sa, sb = oriented_resolution_generators(pd, fc)
    i = sa.hom_degree
    keys = _levels(fc)
    boundaries = _reduce(fc, i - 1, keys)[0]
    profile = _degree_profile(fc, i, keys, boundaries, _reduce(fc, i, keys)[1])
    if profile[keys[0]] != 2:
        raise RankMismatch(
            "Lee homology in degree %d has rank %d (q-level %d), expected 2"
            % (i, profile[keys[0]], keys[0])
        )
    s_min = max(j for j, r in profile.items() if r == 2)
    s_max = max(j for j, r in profile.items() if r >= 1)
    if s_max != s_min + 2:
        raise PropositionViolated(
            "degree %d: s_max = %d != s_min + 2 = %d" % (i, s_max, s_min + 2)
        )
    s = s_min + 1
    if s % 2:
        raise PropositionViolated(
            "degree %d: s = %d is odd (q-levels %d, %d)" % (i, s, s_min, s_max)
        )
    deg_a = _class_degree(fc, sa, boundaries, keys[-2])
    deg_b = _class_degree(fc, sb, boundaries, keys[-2])
    if deg_a != s_min or deg_b != s_min:
        raise PropositionViolated(
            "degree %d: filtration degree of the oriented-resolution classes "
            "is (%s, %s), expected s_min = %d" % (i, deg_a, deg_b, s_min)
        )
    detail = {
        "s_min": s_min,
        "s_max": s_max,
        "profile": profile,
        "class_degrees": (deg_a, deg_b),
    }
    return s, detail


def slice_genus_lower_bound(s):
    """ceil(|s| / 2), a lower bound for the slice genus."""
    return (abs(s) + 1) // 2
