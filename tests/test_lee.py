import json
import random

import pytest

from knotfoam import cli
from knotfoam.diagram import (braid_to_pd, compute_signs, link_components,
                              mirror, parse_pd, r2_sites, reidemeister_move)
from knotfoam.errors import InvalidBraid, NotAKnot, PropositionViolated, RankMismatch
from knotfoam.lee import (
    build_lee,
    filtration_profile,
    lee_invariants,
    lee_rank,
    oriented_resolution_generators,
    s_invariant,
    slice_genus_lower_bound,
)
from knotfoam.homology import reduce_complex, set_matrix, smith_normal_form
from knotfoam.khovanov import KH, LEE, build_complex, kauffman_oracle
from knotfoam.polyring import LaurentQ


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
            kh_mat = kh.matrix(i)
            for c, col in fc.matrix(i).items():
                for r, v in col.items():
                    jump = qs_next[r] - qs[c]
                    assert jump in (0, 4)
                    if jump == 0:
                        assert kh_mat.get(c, {}).get(r) == v


def test_unknot_generators():
    pd = parse_pd("")
    fc = build_lee(pd)
    (_, chain_a), (_, chain_b) = oriented_resolution_generators(pd, fc)
    gens = [fc.generator(0, k) for k in range(len(fc.q_degrees(0)))]
    coeff_a = {gens[i].labels: v for i, v in chain_a.items()}
    coeff_b = {gens[i].labels: v for i, v in chain_b.items()}
    assert coeff_a == {(0,): 1, (1,): 1}     # 1 + X
    assert coeff_b == {(0,): 1, (1,): -1}    # 1 - X


def test_generators_are_cycles():
    for word, strands in ([1, 1, 1], 2), ([1, -2, 1, -2], 3), ([1], 2):
        pd = braid_to_pd(word, strands)
        # raises NotACycle on failure
        oriented_resolution_generators(pd, build_lee(pd))


def test_scaling_preserves_filtration_degree():
    pd = braid_to_pd([1, 1, 1], 2)
    fc = build_lee(pd)
    sa, _sb = oriented_resolution_generators(pd, fc)
    scaled = (sa[0], {k: 3 * v for k, v in sa[1].items()})
    assert _class_degree(pd, scaled) == _class_degree(pd, sa)


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
    # s builds only degrees i - 1 .. i + 1 of the Lee complex; the whole
    # (s, detail) must match the one lee_invariants reads off the full
    # build, as the CLI does
    knots = [braid_to_pd([1, 1, 1], 2), braid_to_pd([1, -2, 1, -2], 3),
             braid_to_pd([-1, -1, -1], 2)]
    rng = random.Random(63)
    while len(knots) < 103:
        knots += [pd for pd in _random_closures(rng, 1, 7)
                  if link_components(pd) == 1]
    for pd in knots:
        for diagram in pd, mirror(pd):
            fc = build_lee(diagram)
            res = reduce_complex(
                fc, cycles=oriented_resolution_generators(diagram, fc))
            assert lee_invariants(res, 1)[1] == s_invariant(diagram)


def test_s_of_t_2_13_from_its_window():
    # the whole cube of T(2,13) holds 3^13 + 3 generators
    pd = braid_to_pd([1] * 13, 2)
    assert s_invariant(pd)[0] == 12
    assert s_invariant(mirror(pd))[0] == -12


def test_generators_without_a_prebuilt_complex():
    # a window of degrees i and i + 1 gives the generators of the full
    # build
    rng = random.Random(64)
    knots = [parse_pd("")]
    while len(knots) < 21:
        knots += [pd for pd in _random_closures(rng, 1, 7)
                  if link_components(pd) == 1]
    for pd in knots:
        for diagram in pd, mirror(pd):
            full = oriented_resolution_generators(diagram,
                                                  build_lee(diagram))
            i = full[0][0]
            window = build_complex(diagram, LEE, degrees=range(i, i + 2))
            assert set(window.degrees) <= {i, i + 1}
            assert oriented_resolution_generators(diagram, window) == full


def test_s_reduces_only_the_oriented_degree(monkeypatch):
    import knotfoam.lee as lee

    def no_rank(*_args):
        raise AssertionError("s_invariant computed a rank")

    calls = []
    reduce = lee.reduce_complex

    def recording_reduce(cx, cycles=(), rational=False, consume=False):
        res = reduce(cx, cycles, rational, consume)
        calls.append((cx.degrees, res.degrees, rational, consume))
        return res

    monkeypatch.setattr(lee, "reduce_complex", recording_reduce)
    monkeypatch.setattr(lee, "lee_rank", no_rank)
    pd = braid_to_pd([1, -2, 1, -2], 3)
    i = oriented_resolution_generators(pd, build_lee(pd))[0][0]
    assert s_invariant(pd)[0] == 0
    # one call, over Q, on d_{i-1} and d_i only, owning the window it built
    assert calls == [([i - 1, i, i + 1], [i - 1, i, i + 1], True, True)]


def test_s_gates_name_the_degree(monkeypatch):
    import knotfoam.lee as lee

    unknot = parse_pd("")

    def lee_builds(fc):
        # s_invariant builds its window through lee.build_complex
        monkeypatch.setattr(lee, "build_complex",
                            lambda pd, side, degrees: fc)

    def unknot_with_q(qs):
        # generator 0 is labelled 1, generator 1 is labelled X
        fc = build_complex(unknot, LEE)
        fc.qs[0] = list(qs)
        fc.q_levels = range(min(qs), max(qs) + 1, 2)
        return fc

    lee_builds(unknot_with_q((3, -1)))
    with pytest.raises(PropositionViolated, match="degree 0: s_max = 3"):
        s_invariant(unknot)
    lee_builds(unknot_with_q((2, 0)))
    with pytest.raises(PropositionViolated,
                       match=r"degree 0: s = 1 is odd \(q-levels 0, 2\)"):
        s_invariant(unknot)
    # without d_{-1} every degree-0 chain of the negative trefoil survives
    trefoil = braid_to_pd([-1, -1, -1], 2)
    fc = build_complex(trefoil, LEE)
    set_matrix(fc, -1, {})
    lee_builds(fc)
    with pytest.raises(RankMismatch, match=r"degree 0 has rank 4 \(q-level -9\)"):
        s_invariant(trefoil)
    monkeypatch.undo()
    monkeypatch.setattr(lee, "oriented_resolution_generators", lambda pd, fc: (
        (0, {0: 1}), (0, {0: 1, 1: -1})))
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


def test_connected_sum_adds_s_and_multiplies_jones():
    # beta1 on strands 1..a and beta2 shifted onto strands a..a+b-1 share
    # strand a, so the closure is the connected sum K1 # K2 of the two
    # closures.  s is additive under #, and the unnormalized Jones
    # polynomial of a sum times q + q^-1 is the product of the factors'.
    # 24 pairs of knots with s != 0, of 2-5 crossings each, so each sum
    # has 10 crossings or fewer.
    rng = random.Random(65)
    factors = []
    while len(factors) < 48:
        strands = rng.randint(2, 3)
        word = [rng.choice([1, -1]) * rng.randint(1, strands - 1)
                for _ in range(rng.randint(2, 5))]
        try:
            pd = braid_to_pd(word, strands)
        except InvalidBraid:
            continue
        if link_components(pd) == 1 and s_invariant(pd)[0]:
            factors.append((word, strands, pd))
    for (w1, a, k1), (w2, b, k2) in zip(factors[::2], factors[1::2]):
        shift = a - 1
        total = braid_to_pd(w1 + [x + shift if x > 0 else x - shift
                                  for x in w2], a + b - 1)
        assert link_components(total) == 1, (w1, w2)
        assert (s_invariant(total)[0]
                == s_invariant(k1)[0] + s_invariant(k2)[0]), (w1, w2)
        assert (kauffman_oracle(total) * LaurentQ.circle()
                == kauffman_oracle(k1) * kauffman_oracle(k2)), (w1, w2)


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
    e_inf = reduce_complex(fc, rational=True)
    assert {i: len(qs) for i, qs in e_inf.qs.items() if qs} == {0: 2}


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
    return len(smith_normal_form(entries))


def _oracle_profile(fc):
    """dim(Z cap F^j) - dim(B cap F^j) by separate ranks, per degree."""
    ranks = {i: _rank(_restrict(fc.matrix(i))) for i in fc.degrees}
    homology = [i for i in fc.degrees
                if len(fc.q_degrees(i)) - ranks[i] - ranks.get(i - 1, 0)]
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


def _class_degree(pd, cls):
    """Largest level j with the class (i, chain) of ``pd``'s Lee complex
    in the image of H(F^j) -> H(C), from the E-infinity page of d_{i-1}
    alone, the window of degrees i - 1 and i: the least q in what is left
    of the chain."""
    i = cls[0]
    fc = build_complex(pd, LEE, degrees=range(i - 1, i + 1))
    res = reduce_complex(fc, [cls], rational=True)
    return min((res.q_degrees(i)[r] for r in res.cycles[0][1]),
               default=fc.q_levels[-1])


def _oracle_class_degree(fc, cls):
    """Largest level j whose part of the chain below j is a boundary there."""
    i, chain = cls
    qs = fc.q_degrees(i)
    levels = sorted({q for i in fc.degrees for q in fc.q_degrees(i)})
    best = None
    for j in levels:
        low = [q < j for q in qs]
        below = _restrict(fc.matrix(i - 1), row=lambda r: low[r])
        if not _in_column_span(below, {r: v for r, v in chain.items()
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
        assert profile[min(profile)] == reduce_complex(
            fc, rational=True).total_dim()
        if link_components(pd) == 1:
            knot_count += 1
            for cls in oriented_resolution_generators(pd, fc):
                assert (_class_degree(pd, cls)
                        == _oracle_class_degree(fc, cls)), pd
    assert knot_count >= 20
