"""The Lee complex, its filtration, and the s-invariant.

The Lee differential takes ``khovanov.frobenius`` at X1 = 1, X2 = -1
(X^2 = 1); its e2 terms strictly raise the q-degree by 4, so the
q-degrees of the undeformed theory induce a descending filtration F^j =
span of generators with q-degree >= j, preserved by the differential.
The homology has rank 2^(number of link components); for a knot the two
classes sit at the oriented resolution, generated by labelling every
circle with a = 1 + X or b = 1 - X.  The two filtration jump levels of
a knot differ by exactly 2, and the s-invariant is the midpoint.

Everything is read off the E-infinity page that
``homology.reduce_complex(..., rational=True)`` leaves: after the +-1
cancellations it cancels each d_i over Q at the smallest q-jump left,
until d_i is empty (Schuetz's filtered Gaussian elimination, below, on
the complex of Lee, arXiv:math/0210213).  This is sound degree by
degree: if d[h, g] = u has the least jump in its row and its column,
then g -> d(g) splits off as a filtered direct summand, since replacing
h by d(g) and each c by c - (d[h, c] / u) g are filtered changes of
basis, so F^j H is unchanged whatever happens in the other degrees.
Ascending jump within one d_i guarantees that minimality; dropping the
cancelled rows of the next differential is the clearing step.  The
survivors form a basis of H whose span at q >= j is the image of
H(F^j) -> H(C): the rank is their number, the profile at level j
counts those with q >= j, and a carried class's filtration degree is
the least q in its support.

s reads only the degrees i - 1, i and i + 1 around the oriented
resolution's degree i (as in Schuetz, "A fast algorithm for calculating
s-invariants", Glasgow Math. J. 2021), so on its own it builds only
that window of the cube; the levels still span the whole cube.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

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
    e_inf = reduce_complex(fc, rational=True)
    return {i: len(qs) for i, qs in e_inf.qs.items() if qs}


def lee_rank(fc, components):
    """Total Lee homology rank; must equal 2**components."""
    return lee_invariants(fc, reduce_complex(fc), components)[0]


def lee_invariants(fc, res, components):
    """Lee rank and (s, detail) or None, from one E-infinity page.

    ``res`` is the residue of the Lee complex ``fc``; s comes when it
    carries the two oriented-resolution classes of a knot.
    """
    e_inf = reduce_complex(res, cycles=res.cycles, rational=True)
    total = e_inf.total_dim()
    if total != 2 ** components:
        raise RankMismatch(
            "Lee homology has rank %d, expected %d (survivors per degree %s)"
            % (total, 2 ** components,
               {i: len(qs) for i, qs in e_inf.qs.items() if qs}))
    return total, (_s_from(e_inf, _levels(fc)) if res.cycles else None)


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


def _profile(qs, keys):
    """The number of survivors ``qs`` at q >= j, for each level j."""
    return {j: sum(q >= j for q in qs) for j in keys}


def _class_degree(qs, chain, top):
    """The least q in a carried class's support, ``top`` if it is empty."""
    return min((qs[r] for r in chain), default=top)


def filtration_profile(fc):
    """Rank of the image of H(F^j) -> H(C) for each level j.

    F^j is spanned by the generators of q-degree >= j; the profile counts
    the survivors of every homological degree, so links are covered too.
    """
    e_inf = reduce_complex(fc, rational=True)
    return _profile([q for qs in e_inf.qs.values() for q in qs], _levels(fc))


def class_filtration_degree(fc, cls):
    """Largest level j with [cls] in the image of H(F^j) -> H(C).

    The class is represented by a cycle z; [z] lies in that image iff
    z = z' + d(w) with z' supported in F^j.  Only d_{i-1} is cancelled.
    """
    i = cls.hom_degree
    res = reduce_complex(fc, range(i - 1, i + 1), [(i, cls.chain)],
                         rational=True)
    return _class_degree(res.q_degrees(i), res.cycles[0][1], fc.q_levels[-1])


def s_invariant(pd, max_crossings=14, fc=None):
    """The s-invariant of a knot diagram, with its structural checks.

    ``fc`` is the Lee complex of ``pd`` when the caller has built it
    already.  Only d_{i-1} and d_i at the oriented-resolution degree i
    are cancelled, and the Lee rank in degree i must be 2.  They read
    only the degrees i - 1, i and i + 1, so without ``fc`` only that
    window of the Lee complex is built; it keeps the q-levels of the
    whole cube, so the profile is the same; the reduction owns that
    window, while a given ``fc`` is left as it is.  Returns ``(s, detail)``
    where detail records s_min, s_max, the filtration profile and the
    filtration degrees of [s_a], [s_b].
    """
    if link_components(pd) != 1:
        raise NotAKnot("the s-invariant needs a one-component diagram")
    owned = fc is None
    if owned:
        i = _oriented_degree(pd)[1]
        fc = build_lee(pd, max_crossings=max_crossings,
                       degrees=range(i - 1, i + 2))
    sa, sb = oriented_resolution_generators(pd, fc)
    i = sa.hom_degree
    res = reduce_complex(fc, range(i - 1, i + 2),
                         [(i, sa.chain), (i, sb.chain)], rational=True,
                         consume=owned)
    return _s_from(res, _levels(fc))


def _s_from(e_inf, keys):
    """s and its detail from an E-infinity page whose degree i, at least,
    is exact, carrying [s_a], [s_b] in degree i."""
    (i, chain_a), (_i, chain_b) = e_inf.cycles
    qs = e_inf.q_degrees(i)
    if len(qs) != 2:
        raise RankMismatch(
            "Lee homology in degree %d has rank %d (q-level %d), expected 2"
            % (i, len(qs), keys[0])
        )
    s_min, s_max = sorted(qs)
    if s_max != s_min + 2:
        raise PropositionViolated(
            "degree %d: s_max = %d != s_min + 2 = %d" % (i, s_max, s_min + 2)
        )
    s = s_min + 1
    if s % 2:
        raise PropositionViolated(
            "degree %d: s = %d is odd (q-levels %d, %d)" % (i, s, s_min, s_max)
        )
    deg_a = _class_degree(qs, chain_a, keys[-2])
    deg_b = _class_degree(qs, chain_b, keys[-2])
    if deg_a != s_min or deg_b != s_min:
        raise PropositionViolated(
            "degree %d: filtration degree of the oriented-resolution classes "
            "is (%s, %s), expected s_min = %d" % (i, deg_a, deg_b, s_min)
        )
    detail = {
        "s_min": s_min,
        "s_max": s_max,
        "profile": _profile(qs, keys),
        "class_degrees": (deg_a, deg_b),
    }
    return s, detail


def slice_genus_lower_bound(s):
    """ceil(|s| / 2), a lower bound for the slice genus."""
    return (abs(s) + 1) // 2
