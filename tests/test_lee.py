import json
import random

import pytest

from knotfoam import cli
from knotfoam.diagram import (braid_to_pd, compute_signs, link_components,
                              mirror, parse_pd, r2_sites, reidemeister_move)
from knotfoam.errors import InvalidBraid, NotAKnot, PropositionViolated, RankMismatch
from knotfoam.lee import (
    build_lee,
    class_filtration_degree,
    filtration_profile,
    lee_homology_betti,
    lee_rank,
    oriented_resolution_generators,
    s_invariant,
    slice_genus_lower_bound,
)
from knotfoam.homology import smith_normal_form
from knotfoam.khovanov import KH, build_complex


def test_unknot_lee_complex():
    fc = build_lee(parse_pd(""))
    assert fc.total_dim() == 2
    assert fc.matrix(0) == {}
    assert lee_rank(fc, 1) == 2


def test_one_crossing_unknot_rank():
    fc = build_lee(braid_to_pd([1], 2))
    assert lee_rank(fc, 1) == 2


def test_lee_rank_theorem():
    from knotfoam.diagram import link_components

    cases = [
        (braid_to_pd([1, 1, 1], 2), 1),
        (braid_to_pd([1, 1], 2), 2),          # hopf link
        (braid_to_pd([1, 1, 1, 1], 2), 2),    # T(2,4) link
        (braid_to_pd([1, -2, 1, -2], 3), 1),  # figure eight
        (braid_to_pd([1, 1, 2, 2], 3), 3),    # identity permutation: 3 parts
    ]
    for pd, comps in cases:
        assert link_components(pd) == comps
        assert lee_rank(build_lee(pd), comps) == 2 ** comps


def test_lee_rank_mismatch_error():
    fc = build_lee(braid_to_pd([1, 1, 1], 2))
    with pytest.raises(RankMismatch):
        lee_rank(fc, 2)


def test_phi_raises_q_by_four():
    rng = random.Random(60)
    from knotfoam.errors import InvalidBraid

    for _ in range(10):
        word = [rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(2, 6))]
        try:
            pd = braid_to_pd(word, 3)
        except InvalidBraid:
            continue
        kh = build_complex(pd, KH)
        fc = build_lee(pd)
        for i in fc.degrees:
            qs = fc.q_degrees(i)
            qs_next = fc.q_degrees(i + 1)
            for c, col in fc.matrix(i).items():
                for r, v in col.items():
                    jump = qs_next[r] - qs[c]
                    assert jump in (0, 4)
                    if jump == 0:
                        assert kh.matrix(i).get(c, {}).get(r) == v


def test_unknot_generators():
    pd = parse_pd("")
    fc = build_lee(pd)
    sa, sb = oriented_resolution_generators(pd, fc)
    gens = [fc.generator(0, k) for k in range(fc.dim(0))]
    coeff_a = {gens[i].labels: v for i, v in sa.chain.items()}
    coeff_b = {gens[i].labels: v for i, v in sb.chain.items()}
    assert coeff_a == {(0,): 1, (1,): 1}     # 1 + X
    assert coeff_b == {(0,): 1, (1,): -1}    # 1 - X


def test_generators_are_cycles():
    for word, strands in ([1, 1, 1], 2), ([1, -2, 1, -2], 3), ([1], 2):
        pd = braid_to_pd(word, strands)
        oriented_resolution_generators(pd)  # raises NotACycle on failure


def test_scaling_preserves_filtration_degree():
    from knotfoam.lee import LeeClass

    pd = braid_to_pd([1, 1, 1], 2)
    fc = build_lee(pd)
    sa, _sb = oriented_resolution_generators(pd, fc)
    scaled = LeeClass(sa.hom_degree, {k: 3 * v for k, v in sa.chain.items()})
    assert class_filtration_degree(fc, scaled) == class_filtration_degree(fc, sa)


def test_unknot_profile():
    fc = build_lee(parse_pd(""))
    assert filtration_profile(fc) == {-1: 2, 1: 1, 2: 0}


def test_profile_monotone():
    for word, strands in ([1, 1, 1], 2), ([1, -2, 1, -2], 3), ([1, 1, 1, 1, 1], 2):
        fc = build_lee(braid_to_pd(word, strands))
        profile = filtration_profile(fc)
        levels = sorted(profile)
        values = [profile[j] for j in levels]
        assert values == sorted(values, reverse=True)


def test_trefoil_profile_two_jumps():
    fc = build_lee(braid_to_pd([1, 1, 1], 2))
    profile = filtration_profile(fc)
    jumps = []
    levels = sorted(profile)
    for a, b in zip(levels, levels[1:]):
        if profile[a] != profile[b]:
            jumps.append(a)
    assert len(jumps) == 2
    assert jumps[1] - jumps[0] == 2


def test_s_values():
    assert s_invariant(parse_pd(""))[0] == 0
    assert s_invariant(braid_to_pd([1, 1, 1], 2))[0] == 2
    assert s_invariant(braid_to_pd([-1, -1, -1], 2))[0] == -2
    assert s_invariant(braid_to_pd([1, -2, 1, -2], 3))[0] == 0
    assert s_invariant(braid_to_pd([1, 1, 1, 1, 1], 2))[0] == 4


def test_s_structure():
    for word, strands in ([1, 1, 1], 2), ([1, -2, 1, -2], 3), ([1, 1, 1, 1, 1], 2):
        pd = braid_to_pd(word, strands)
        s, detail = s_invariant(pd)
        assert s % 2 == 0
        assert detail["s_max"] == detail["s_min"] + 2
        assert detail["class_degrees"] == (detail["s_min"], detail["s_min"])


def test_s_with_prebuilt_complex():
    # without fc, s builds only degrees i - 1 .. i + 1 of the Lee complex;
    # the whole (s, detail) must match the one read off the full build
    knots = [braid_to_pd([1, 1, 1], 2), braid_to_pd([1, -2, 1, -2], 3),
             braid_to_pd([-1, -1, -1], 2)]
    rng = random.Random(63)
    while len(knots) < 103:
        knots += [pd for pd in _random_closures(rng, 1, 7)
                  if link_components(pd) == 1]
    for pd in knots:
        for diagram in pd, mirror(pd):
            assert s_invariant(diagram, fc=build_lee(diagram)) == s_invariant(diagram)


def test_s_of_t_2_13_from_its_window():
    # the whole cube of T(2,13) holds 3^13 + 3 generators
    pd = braid_to_pd([1] * 13, 2)
    assert s_invariant(pd)[0] == 12
    assert s_invariant(mirror(pd))[0] == -12


def test_generators_without_a_prebuilt_complex():
    # without fc only degrees i and i + 1 are built
    rng = random.Random(64)
    knots = [parse_pd("")]
    while len(knots) < 21:
        knots += [pd for pd in _random_closures(rng, 1, 7)
                  if link_components(pd) == 1]
    for pd in knots:
        for diagram in pd, mirror(pd):
            assert (oriented_resolution_generators(diagram)
                    == oriented_resolution_generators(diagram, build_lee(diagram)))


def test_s_reduces_only_the_oriented_degree(monkeypatch):
    import knotfoam.lee as lee

    def no_rank(*_args):
        raise AssertionError("s_invariant computed a rank")

    windows = []
    reduce = lee.reduce_complex

    def recording_reduce(cx, window=None, cycles=(), rational=False):
        res = reduce(cx, window, cycles, rational)
        windows.append((window, res.degrees, rational))
        return res

    monkeypatch.setattr(lee, "reduce_complex", recording_reduce)
    monkeypatch.setattr(lee, "lee_rank", no_rank)
    pd = braid_to_pd([1, -2, 1, -2], 3)
    i = oriented_resolution_generators(pd)[0].hom_degree
    assert s_invariant(pd)[0] == 0
    # one call, over Q, on d_{i-1} and d_i only
    assert windows == [(range(i - 1, i + 2), [i - 1, i, i + 1], True)]


def test_s_gates_name_the_degree(monkeypatch):
    import knotfoam.lee as lee

    unknot = parse_pd("")

    def unknot_with_q(qs):
        # generator 0 is labelled 1, generator 1 is labelled X
        fc = build_lee(unknot)
        fc.qs[0] = list(qs)
        fc.q_levels = range(min(qs), max(qs) + 1, 2)
        return fc

    with pytest.raises(PropositionViolated, match="degree 0: s_max = 3"):
        s_invariant(unknot, fc=unknot_with_q((3, -1)))
    with pytest.raises(PropositionViolated,
                       match=r"degree 0: s = 1 is odd \(q-levels 0, 2\)"):
        s_invariant(unknot, fc=unknot_with_q((2, 0)))
    # without d_{-1} every degree-0 chain of the negative trefoil survives
    trefoil = braid_to_pd([-1, -1, -1], 2)
    fc = build_lee(trefoil)
    del fc.differentials[-1]
    with pytest.raises(RankMismatch, match=r"degree 0 has rank 4 \(q-level -9\)"):
        s_invariant(trefoil, fc=fc)
    monkeypatch.setattr(lee, "oriented_resolution_generators", lambda pd, fc: (
        lee.LeeClass(0, {0: 1}), lee.LeeClass(0, {0: 1, 1: -1})))
    with pytest.raises(PropositionViolated, match=r"degree 0: .* is \(1, -1\)"):
        s_invariant(unknot)


def test_s_mirror_antisymmetry():
    for word, strands in ([1, 1, 1], 2), ([1, 1, 1, 1, 1], 2), ([1, -2, 1, -2], 3):
        pd = braid_to_pd(word, strands)
        s, _ = s_invariant(pd)
        sm, _ = s_invariant(mirror(pd))
        assert sm == -s


def test_s_invariant_under_moves():
    rng = random.Random(61)
    pd = braid_to_pd([1, 1, 1], 2)
    s0, _ = s_invariant(pd)
    for _ in range(4):
        mv = rng.choice(["R1+", "R1-", "R2"])
        if mv == "R2":
            pd = reidemeister_move(pd, "R2", rng.choice(r2_sites(pd)))
        else:
            pd = reidemeister_move(pd, mv, rng.choice(sorted(pd.arcs())))
        assert s_invariant(pd)[0] == s0


def test_slice_bennequin_bounds(capsys):
    # a knot closing a braid word of writhe w on b strands has
    # w - b + 1 <= s <= w + b - 1 (the slice-Bennequin inequality for
    # the knot and for its mirror); a positive word attains the lower
    # bound.  Every fourth knot's s also comes through the CLI, which
    # reduces the whole Lee complex instead of a window of it.
    rng = random.Random(62)
    knots = []
    while len(knots) < 40:
        strands = rng.randint(2, 4)
        signs = [1] if len(knots) % 3 == 0 else [1, -1]
        word = [rng.choice(signs) * rng.randint(1, strands - 1)
                for _ in range(rng.randint(3, 8))]
        try:
            pd = braid_to_pd(word, strands)
        except InvalidBraid:
            continue
        if link_components(pd) == 1:
            knots.append((word, strands, pd))
    positive = 0
    for k, (word, strands, pd) in enumerate(knots):
        n_plus, n_minus, _ = compute_signs(pd)
        w = n_plus - n_minus
        assert w == sum(1 if x > 0 else -1 for x in word)
        s = s_invariant(pd)[0]
        assert w - strands + 1 <= s <= w + strands - 1, (word, strands)
        if min(word) > 0:
            assert s == w - strands + 1, (word, strands)
            positive += 1
        if k % 4 == 0:
            argv = ["invariants", "--braid", " ".join(map(str, word)),
                    "--strands", str(strands), "--format", "json"]
            assert cli.main(argv) == 0
            assert json.loads(capsys.readouterr().out)["s"] == s
    assert positive >= 10


def test_s_rejects_links():
    with pytest.raises(NotAKnot):
        s_invariant(braid_to_pd([1, 1], 2))


def test_lee_betti_concentrated_for_knots():
    fc = build_lee(braid_to_pd([1, 1, 1], 2))
    assert lee_homology_betti(fc) == {0: 2}


def test_knot_q_degrees_share_parity():
    # odd q-degrees throughout, so s_min/s_max are odd and s is even
    for word, strands in ([1], 2), ([1, 1, 1], 2), ([1, -2, 1, -2], 3):
        fc = build_lee(braid_to_pd(word, strands))
        qs = [q for i in fc.degrees for q in fc.q_degrees(i)]
        assert all(q % 2 == 1 for q in qs)


def test_slice_genus_bound():
    assert slice_genus_lower_bound(0) == 0
    assert slice_genus_lower_bound(2) == 1
    assert slice_genus_lower_bound(-4) == 2


# -- the filtration by rank arithmetic, as a reference ------------------


def _restrict(columns, row=lambda r: True, col=lambda c: True):
    """The entries of a column map as the {(r, c): v} that SNF takes."""
    return {(r, c): v for c, entries in columns.items() if col(c)
            for r, v in entries.items() if row(r)}


def _rank(entries):
    return smith_normal_form(entries).rank


def _oracle_profile(fc):
    """dim(Z cap F^j) - dim(B cap F^j) by separate ranks, per degree."""
    ranks = {i: _rank(_restrict(fc.matrix(i))) for i in fc.degrees}
    homology = [i for i in fc.degrees
                if fc.dim(i) - ranks[i] - ranks.get(i - 1, 0)]
    levels = sorted({q for i in fc.degrees for q in fc.q_degrees(i)})
    out = {}
    for j in levels + [levels[-1] + 1]:
        out[j] = 0
        for i in homology:
            high = [q >= j for q in fc.q_degrees(i)]
            cycles = sum(high) - _rank(
                _restrict(fc.matrix(i), col=lambda c: high[c]))
            boundaries = ranks.get(i - 1, 0) - _rank(
                _restrict(fc.matrix(i - 1), row=lambda r: not high[r]))
            out[j] += cycles - boundaries
    return out


def _in_column_span(entries, vector):
    if not vector:
        return True
    extra = 1 + max((c for _r, c in entries), default=-1)
    augmented = dict(entries)
    augmented.update({(r, extra): v for r, v in vector.items()})
    return _rank(augmented) == _rank(entries)


def _oracle_class_degree(fc, cls):
    """Largest level j whose part of the chain below j is a boundary there."""
    qs = fc.q_degrees(cls.hom_degree)
    levels = sorted({q for i in fc.degrees for q in fc.q_degrees(i)})
    best = None
    for j in levels:
        low = [q < j for q in qs]
        below = _restrict(fc.matrix(cls.hom_degree - 1), row=lambda r: low[r])
        if not _in_column_span(below, {r: v for r, v in cls.chain.items()
                                       if low[r]}):
            break
        best = j
    return best


def _random_closures(rng, count, max_letters):
    out = []
    while len(out) < count:
        strands = rng.randint(2, 4)
        word = [rng.choice([1, -1]) * rng.randint(1, strands - 1)
                for _ in range(rng.randint(1, max_letters))]
        try:
            out.append(braid_to_pd(word, strands))
        except InvalidBraid:
            continue
    return out


def test_reduction_matches_rank_oracle():
    from knotfoam.diagram import link_components

    knots = [parse_pd(""), braid_to_pd([1], 2), braid_to_pd([1, 1, 1], 2),
             braid_to_pd([-1, -1, -1], 2), braid_to_pd([1, -2, 1, -2], 3),
             braid_to_pd([1, 1, 1, 1, 1], 2)]
    knots += [mirror(pd) for pd in knots[2:]]
    links = [braid_to_pd([1, 1], 2), braid_to_pd([1, 1, 1, 1], 2),
             braid_to_pd([1, 1, 2, 2], 3), braid_to_pd([1, -2, 1, 2], 3)]
    closures = _random_closures(random.Random(62), 40, 9)
    knot_count = 0
    for pd in knots + links + closures:
        fc = build_lee(pd)
        profile = filtration_profile(fc)
        assert profile == _oracle_profile(fc), pd
        assert profile[min(profile)] == sum(lee_homology_betti(fc).values())
        if link_components(pd) == 1:
            knot_count += 1
            for cls in oriented_resolution_generators(pd, fc):
                assert (class_filtration_degree(fc, cls)
                        == _oracle_class_degree(fc, cls)), pd
    assert knot_count >= 20
