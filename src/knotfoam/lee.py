"""The Lee complex, its filtration, and the s-invariant.

The Lee differential is the Khovanov one deformed by X^2 = 1; the
deformation strictly raises the q-degree by 4, so the q-degrees of the
undeformed theory induce a descending filtration F^j = span of
generators with q-degree >= j, preserved by the differential.  The
homology has rank 2^(number of link components); for a knot the two
classes sit at the oriented resolution, generated by labelling every
circle with a = 1 + X or b = 1 - X.  The two filtration jump levels of
a knot differ by exactly 2, and the s-invariant is the midpoint.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._linalg import in_column_span, sparse_rank
from .diagram import compute_signs, link_components, oriented_state
from .errors import NotACycle, NotAKnot, PropositionViolated, RankMismatch
from .khovanov import LEE, build_complex


def build_lee(pd, max_crossings=14):
    """The Lee complex of a diagram (generators and q-degrees as in Kh)."""
    return build_complex(pd, LEE, max_crossings=max_crossings)


def _degree_ranks(fc):
    """Rank of each differential d_i over Q."""
    ranks = {}
    for i in fc.degrees:
        mat = fc.matrix(i)
        if mat:
            ranks[i] = sparse_rank(mat, fc.dim(i))
        else:
            ranks[i] = 0
    return ranks


def lee_homology_betti(fc):
    """Rational betti number of the Lee homology per homological degree."""
    ranks = _degree_ranks(fc)
    out = {}
    for i in fc.degrees:
        b = fc.dim(i) - ranks.get(i, 0) - ranks.get(i - 1, 0)
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


def filtration_levels(fc):
    """Sorted q-levels at which the filtration can jump."""
    qs = set()
    for i in fc.degrees:
        qs.update(fc.q_degrees(i))
    return sorted(qs)


def filtration_profile(fc):
    """Rank of the image of H(F^j) -> H(C) for each level j.

    F^j is spanned by the generators of q-degree >= j.  Per homological
    degree the image rank is dim(Z cap F^j) - dim(B cap F^j), computed
    by exact rank arithmetic; degrees with vanishing homology contribute
    nothing and are skipped.
    """
    betti = lee_homology_betti(fc)
    levels = filtration_levels(fc)
    if not levels:
        return {}
    out = {}
    for j in levels + [levels[-1] + 1]:
        total = 0
        for i in betti:
            total += _level_rank(fc, i, j)
        out[j] = total
    return out


def _level_rank(fc, i, j):
    qs = fc.q_degrees(i)
    in_level = [q >= j for q in qs]
    ncols_high = sum(in_level)
    mat = fc.matrix(i)
    # cycles inside F^j: kernel of d_i restricted to the F^j columns
    rank_restricted = sparse_rank(mat, fc.dim(i), col_keep=lambda c: in_level[c])
    z = ncols_high - rank_restricted
    # boundaries inside F^j: rank(d_{i-1}) - rank(d_{i-1} with F^j rows removed)
    prev = fc.matrix(i - 1)
    if prev:
        ncols_prev = fc.dim(i - 1)
        full = sparse_rank(prev, ncols_prev)
        off = sparse_rank(prev, ncols_prev, row_keep=lambda r: not in_level[r])
        b = full - off
    else:
        b = 0
    return z - b


def class_filtration_degree(fc, cls):
    """Largest j with [cls] in the image of H(F^j) -> H(C).

    The class is represented by a cycle z; [z] lies in that image iff
    z = z' + d(w) with z' supported in F^j, i.e. iff the part of z below
    level j is a boundary below level j.
    """
    i = cls.hom_degree
    qs = fc.q_degrees(i)
    prev = fc.matrix(i - 1)
    best = None
    for j in filtration_levels(fc):
        if in_column_span(prev, cls.chain, row_keep=lambda r: qs[r] < j):
            best = j
        else:
            break
    return best


def s_invariant(pd, max_crossings=14, fc=None):
    """The s-invariant of a knot diagram, with its structural checks.

    ``fc`` is the Lee complex of ``pd`` when the caller has built it
    already.  Returns ``(s, detail)`` where detail records s_min, s_max,
    the filtration profile and the filtration degrees of [s_a], [s_b].
    """
    if link_components(pd) != 1:
        raise NotAKnot("the s-invariant needs a one-component diagram")
    if fc is None:
        fc = build_lee(pd, max_crossings=max_crossings)
    lee_rank(fc, 1)
    profile = filtration_profile(fc)
    s_min = max((j for j, r in profile.items() if r == 2), default=None)
    s_max = max((j for j, r in profile.items() if r >= 1), default=None)
    if s_min is None or s_max is None:
        raise PropositionViolated("filtration profile has no jump levels")
    if s_max != s_min + 2:
        raise PropositionViolated(
            "s_max = %d != s_min + 2 = %d" % (s_max, s_min + 2)
        )
    s = s_min + 1
    if s % 2:
        raise PropositionViolated("s = %d is odd" % s)
    sa, sb = oriented_resolution_generators(pd, fc)
    deg_a = class_filtration_degree(fc, sa)
    deg_b = class_filtration_degree(fc, sb)
    if deg_a != s_min or deg_b != s_min:
        raise PropositionViolated(
            "filtration degree of the oriented-resolution classes is "
            "(%s, %s), expected s_min = %d" % (deg_a, deg_b, s_min)
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
