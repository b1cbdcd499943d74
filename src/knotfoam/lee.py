"""The Lee complex, its filtration, and the s-invariant.

The Lee differential takes ``khovanov.frobenius`` at X1 = 1, X2 = -1
(X^2 = 1); its e2 terms strictly raise the q-degree by 4, so the
q-degrees of the undeformed theory induce a descending filtration F^j =
span of generators with q-degree >= j, preserved by the differential.
The homology has rank 2^(number of link components); for a knot the two
classes sit at the oriented resolution, generated by labelling every
circle with a = 1 + X or b = 1 - X.  The two filtration jump levels of
a knot differ by exactly 2, and the s-invariant is the midpoint.

Everything is read off the small residue of ``homology.reduce_complex``,
which has the filtered homology of the input, at the q-levels of the
input, by one filtered, persistence-style column reduction per
differential.  The columns of d_i go in from the highest q down, each
reduced until its lowest coordinate, in the (q, index) order of degree
i + 1, is a new pivot.  The rank reached after level j is the rank of
d_i on F^j, so dim(Z_i cap F^j) is the number of degree-i generators
with q >= j minus that rank.  Every nonzero boundary has a pivot as its
lowest coordinate, so dim(B_{i+1} cap F^j) is the number of pivots with
q >= j.  The difference of the two, the profile, is the rank of the
image of H(F^j) -> H(C) in that degree; at the lowest level it is the
Betti number.  A class, carried through the cancellations and reduced
against the pivots of d_{i-1}, keeps a lowest coordinate that no
boundary can cancel, and its q is the filtration degree of the class.

s reads only the degrees i - 1, i and i + 1 around the oriented
resolution's degree i (as in Schuetz, "A fast algorithm for calculating
s-invariants", Glasgow Math. J. 2021), so on its own it builds only
that window of the cube; the levels still span the whole cube.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass

from ._linalg import RowBasis
from .diagram import compute_signs, link_components, oriented_state
from .errors import NotACycle, NotAKnot, PropositionViolated, RankMismatch
from .homology import reduce_complex
from .khovanov import LEE, build_complex


def build_lee(pd, max_crossings=14, degrees=None):
    """The Lee complex of a diagram (generators and q-degrees as in Kh),
    or its window of homological ``degrees`` as in ``build_complex``."""
    return build_complex(pd, LEE, max_crossings=max_crossings, degrees=degrees)


def lee_homology_betti(fc):
    """Rational betti number of the Lee homology per homological degree."""
    keys, _reduced, profiles = _profiles(fc, reduce_complex(fc))
    return {i: p[keys[0]] for i, p in profiles.items() if p[keys[0]]}


def lee_rank(fc, components):
    """Total Lee homology rank; must equal 2**components."""
    return lee_invariants(fc, reduce_complex(fc), components)[0]


def lee_invariants(fc, res, components):
    """Lee rank and (s, detail) or None, each degree reduced once.

    ``res`` is the residue of the Lee complex ``fc``; s comes when it
    carries the two oriented-resolution classes of a knot.
    """
    keys, reduced, profiles = _profiles(fc, res)
    total = sum(p[keys[0]] for p in profiles.values())
    if total != 2 ** components:
        raise RankMismatch("Lee homology has rank %d, expected %d"
                           % (total, 2 ** components))
    return total, (_s_from(res, keys, reduced) if res.cycles else None)


def _profiles(fc, res):
    """The levels of ``fc``, the filtered reduction of every d_i of its
    residue ``res`` (the zero map into the lowest degree included) and
    the profile of every degree."""
    keys = _levels(fc)
    reduced = {i: _reduce(res, i, keys)
               for i in range(res.degrees[0] - 1, res.degrees[-1] + 1)}
    return keys, reduced, {i: _degree_profile(res, i, keys, reduced)
                           for i in res.degrees}


@dataclass(frozen=True)
class LeeClass:
    """A Lee cycle written in the generator basis of one degree."""

    hom_degree: int
    chain: dict  # generator index -> integer coefficient


def _apply(matrix, chain):
    out = {}
    for c, coeff in chain.items():
        for r, v in matrix.get(c, {}).items():
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
    be Lee cycles.  Without ``fc`` only the degrees i and i + 1 of the
    Lee complex are built, i being the oriented resolution's degree.
    """
    st, degree = _oriented_degree(pd)
    if fc is None:
        fc = build_lee(pd, degrees=range(degree, degree + 2))
    epsilon = _alternating_signs(pd, st)

    chain_a = {}
    chain_b = {}
    for idx in fc.state_run(degree, st):
        g = fc.generator(degree, idx)
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


def _oriented_degree(pd):
    """The oriented resolution's state and its homological degree."""
    st = oriented_state(pd).assignment
    return st, sum(st) - compute_signs(pd)[1]


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
        queue = deque([root])
        while queue:
            cur = queue.popleft()
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
    """The q-levels where the filtration can jump, and one above the top:
    those of the whole cube, the degrees a window build left out
    included."""
    return [*fc.q_levels, fc.q_levels[-1] + 1]


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
    pending = sorted(range(len(qs)), key=qs.__getitem__)
    basis = RowBasis()
    ranks = {}
    for j in reversed(keys):
        while pending and qs[pending[-1]] >= j:
            col = fc.matrix(i).get(pending.pop())
            if col:
                basis.add({position[r]: v for r, v in col.items()})
        ranks[j] = basis.rank
    return basis, ranks


def _degree_profile(fc, i, keys, reduced):
    """dim(Z cap F^j) - dim(B cap F^j) in degree i, for each j in keys.

    ``reduced`` holds the filtered reductions of d_{i-1} (its basis
    spans the boundaries) and d_i (its level ranks).
    """
    qs = sorted(fc.q_degrees(i))
    pivot_qs = sorted(qs[p] for p in reduced[i - 1][0].pivots)
    ranks = reduced[i][1]
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
    keys, _reduced, profiles = _profiles(fc, reduce_complex(fc))
    return {j: sum(p[j] for p in profiles.values()) for j in keys}


def class_filtration_degree(fc, cls):
    """Largest level j with [cls] in the image of H(F^j) -> H(C).

    The class is represented by a cycle z; [z] lies in that image iff
    z = z' + d(w) with z' supported in F^j.
    """
    keys = _levels(fc)
    i = cls.hom_degree
    res = reduce_complex(fc, range(i - 1, i + 1), [(i, cls.chain)])
    boundaries = _reduce(res, i - 1, keys)[0]
    return _class_degree(res, LeeClass(*res.cycles[0]), boundaries, keys[-2])


def s_invariant(pd, max_crossings=14, fc=None):
    """The s-invariant of a knot diagram, with its structural checks.

    ``fc`` is the Lee complex of ``pd`` when the caller has built it
    already.  Only d_{i-1} and d_i at the oriented-resolution degree i
    are reduced, and the Lee rank in degree i must be 2.  They read
    only the degrees i - 1, i and i + 1, so without ``fc`` only that
    window of the Lee complex is built; it keeps the q-levels of the
    whole cube, so the profile is the same.  Returns ``(s, detail)``
    where detail records s_min, s_max, the filtration profile and the
    filtration degrees of [s_a], [s_b].
    """
    if link_components(pd) != 1:
        raise NotAKnot("the s-invariant needs a one-component diagram")
    if fc is None:
        i = _oriented_degree(pd)[1]
        fc = build_lee(pd, max_crossings=max_crossings,
                       degrees=range(i - 1, i + 2))
    sa, sb = oriented_resolution_generators(pd, fc)
    i = sa.hom_degree
    res = reduce_complex(fc, range(i - 1, i + 2),
                         [(i, sa.chain), (i, sb.chain)])
    keys = _levels(fc)
    return _s_from(res, keys, {j: _reduce(res, j, keys) for j in (i - 1, i)})


def _s_from(res, keys, reduced):
    """s and its detail from the reductions of d_{i-1}, d_i of ``res``,
    the residue carrying [s_a], [s_b] in degree i."""
    sa, sb = (LeeClass(*c) for c in res.cycles)
    i = sa.hom_degree
    boundaries = reduced[i - 1][0]
    profile = _degree_profile(res, i, keys, reduced)
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
    deg_a = _class_degree(res, sa, boundaries, keys[-2])
    deg_b = _class_degree(res, sb, boundaries, keys[-2])
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
