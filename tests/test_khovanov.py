import random

import pytest

from knotfoam.diagram import (
    PDCode,
    State,
    braid_to_pd,
    mirror,
    parse_pd,
    smooth_state,
    trace_orientations,
    validate_pd,
)
from knotfoam.errors import InvalidBraid, InvalidDiagram, TooLarge
from knotfoam.khovanov import (
    KH,
    LEE,
    build_complex,
    edge_map,
    graded_euler_characteristic,
    kauffman_oracle,
)
from knotfoam.lee import _levels
from knotfoam.polyring import LaurentQ

CIRCLE = LaurentQ.circle()


def random_braid_pd(rng, max_letters=6, strands=3):
    from knotfoam.errors import InvalidBraid

    while True:
        word = [rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(2, max_letters))]
        try:
            return braid_to_pd(word, strands)
        except InvalidBraid:
            continue


def test_edge_map_tables():
    m = edge_map("merge", KH)
    assert m[(1, 1)] == {}
    assert m[(0, 0)] == {0: 1}
    assert m[(0, 1)] == {1: 1} and m[(1, 0)] == {1: 1}
    m_lee = edge_map("merge", LEE)
    assert m_lee[(1, 1)] == {0: 1}
    d = edge_map("split", KH)
    assert d[0] == {(0, 1): 1, (1, 0): 1}
    assert d[1] == {(1, 1): 1}
    d_lee = edge_map("split", LEE)
    assert d_lee[1] == {(0, 0): 1, (1, 1): 1}


def test_unknot_complex():
    cx = build_complex(parse_pd(""), KH)
    assert cx.degrees == [0]
    assert sorted(cx.q_degrees(0)) == [-1, 1]
    assert cx.matrix(0) == {}


def test_one_crossing_unknot():
    from knotfoam.homology import integral_homology

    cx = build_complex(braid_to_pd([1], 2), KH)
    cx.check_d_squared()
    table = integral_homology(cx)
    assert table.rows() == [(0, -1, 1, []), (0, 1, 1, [])]


def test_d_squared_and_degrees():
    rng = random.Random(40)
    for _ in range(25):
        pd = random_braid_pd(rng)
        cx = build_complex(pd, KH)
        cx.check_d_squared()
        for i in cx.degrees:
            qs = cx.q_degrees(i)
            qs_next = cx.q_degrees(i + 1)
            for (r, c), _v in cx.matrix(i).items():
                assert qs_next[r] == qs[c]


def test_lee_entries_raise_q_by_zero_or_four():
    rng = random.Random(41)
    for _ in range(15):
        pd = random_braid_pd(rng)
        kh = build_complex(pd, KH)
        lee = build_complex(pd, LEE)
        lee.check_d_squared()
        for i in lee.degrees:
            qs = lee.q_degrees(i)
            qs_next = lee.q_degrees(i + 1)
            kh_mat = kh.matrix(i)
            for (r, c), v in lee.matrix(i).items():
                jump = qs_next[r] - qs[c]
                assert jump in (0, 4)
                if jump == 4:
                    # the deformation part never overlaps the Kh part
                    assert (r, c) not in kh_mat
                else:
                    assert kh_mat.get((r, c)) == v


def _assert_entries_follow_the_edge_maps(pd, side):
    """Every entry, with its target labels, read off the cube directly."""
    merge = edge_map("merge", side)
    split = edge_map("split", side)
    cx = build_complex(pd, side)
    smoothings = {}

    def membership(state):
        if state not in smoothings:
            smoothings[state] = smooth_state(pd, State(state)).membership
        return smoothings[state]

    def local_map(state, labels, j):
        """Touched circles and the edge map's outputs at crossing j."""
        arcs = pd.crossings[j]
        src = membership(state)
        c1, c2 = src[arcs[0]], src[arcs[2]]
        if c1 != c2:
            return {c1, c2}, merge[(labels[c1], labels[c2])]
        return {c1}, split[labels[c1]]

    nonzeros = 0
    for i, mat in cx.differentials.items():
        for (r, c), v in mat.items():
            g, h = cx.generators[i][c], cx.generators[i + 1][r]
            flips = [j for j in range(pd.n) if g.state[j] != h.state[j]]
            assert len(flips) == 1
            j = flips[0]
            assert (g.state[j], h.state[j]) == (0, 1)
            src_labels = dict(zip(g.circles, g.labels))
            tgt_labels = dict(zip(h.circles, h.labels))
            tgt = membership(h.state)
            a, b, _c, _d = pd.crossings[j]
            touched, outputs = local_map(g.state, src_labels, j)
            if len(touched) == 2:
                coeff = outputs.get(tgt_labels[tgt[a]], 0)
            else:
                # on a non-planar code a split can leave one circle
                # (t1 == t2), which takes the second label
                t1, t2 = tgt[a], tgt[b]
                coeff = sum(w for (la, lb), w in outputs.items()
                            if {t1: la, t2: lb} == {t1: tgt_labels[t1],
                                                    t2: tgt_labels[t2]})
            assert coeff != 0
            assert v == (-1) ** sum(g.state[:j]) * coeff
            # untouched circles keep their labels, matched by a shared arc
            for arc, cid in membership(g.state).items():
                if cid not in touched:
                    assert tgt_labels[tgt[arc]] == src_labels[cid]
            nonzeros += 1
    predicted = 0
    for gens in cx.generators.values():
        for g in gens:
            labels = dict(zip(g.circles, g.labels))
            for j in range(pd.n):
                if not g.state[j]:
                    predicted += len(local_map(g.state, labels, j)[1])
    assert nonzeros == predicted > 0
    return cx


@pytest.mark.parametrize("side", [KH, LEE])
def test_differential_entries_follow_the_edge_maps(side):
    rng = random.Random(44)
    for _ in range(20):
        _assert_entries_follow_the_edge_maps(random_braid_pd(rng, max_letters=5), side)
    # T(2,7) and a 4-strand closure reach 7 and 6 circles, so edges with
    # many untouched circles are checked entry by entry too
    for pd in braid_to_pd([1] * 7, 2), braid_to_pd([1, 3, 2, 1, 3, 2, 1, 3], 4):
        cx = _assert_entries_follow_the_edge_maps(pd, side)
        assert max(len(g.circles) for gens in cx.generators.values()
                   for g in gens) >= 5


@pytest.mark.parametrize("side", [KH, LEE])
def test_non_planar_split_that_keeps_one_circle(side):
    # unvalidated virtual codes: an edge can split a circle into one
    # circle, whose entries must not share a pattern with a true split
    rng = random.Random(45)
    kept = 0
    while kept < 10:
        n = rng.randint(1, 3)
        arcs = [a for a in range(1, 2 * n + 1) for _ in (0, 1)]
        rng.shuffle(arcs)
        pd = PDCode(tuple(tuple(arcs[4 * k:4 * k + 4]) for k in range(n)))
        try:
            trace_orientations(pd)
        except InvalidDiagram:
            continue
        counts = [smooth_state(pd, State([m >> j & 1 for j in range(n)])).circle_count
                  for m in range(2 ** n)]
        if all(counts[m] != counts[m | 1 << j] for m in range(2 ** n)
               for j in range(n)):
            continue
        _assert_entries_follow_the_edge_maps(pd, side)
        kept += 1


def test_two_faces_anticommute():
    rng = random.Random(42)
    for _ in range(10):
        pd = random_braid_pd(rng, max_letters=5)
        cx = build_complex(pd, KH)
        by_state = {}
        for i in cx.degrees:
            for idx, g in enumerate(cx.generators[i]):
                by_state.setdefault(g.state, []).append((i, idx))
        checked = 0
        for st in by_state:
            zeros = [j for j, s in enumerate(st) if s == 0]
            if len(zeros) < 2:
                continue
            j, k = zeros[0], zeros[1]
            sj = tuple(1 if x == j else s for x, s in enumerate(st))
            sk = tuple(1 if x == k else s for x, s in enumerate(st))
            sjk = tuple(1 if x in (j, k) else s for x, s in enumerate(st))
            comp = {}
            i = sum(st) - cx.n_minus
            d1 = cx.matrix(i)
            d2 = cx.matrix(i + 1)
            src = {idx: g for idx, g in enumerate(cx.generators[i]) if g.state == st}
            mid = {idx: g for idx, g in enumerate(cx.generators[i + 1])
                   if g.state in (sj, sk)}
            tgt = {idx: g for idx, g in enumerate(cx.generators[i + 2])
                   if g.state == sjk} if (i + 2) in cx.generators else {}
            for (r1, c1), v1 in d1.items():
                if c1 not in src or r1 not in mid:
                    continue
                for (r2, c2), v2 in d2.items():
                    if c2 != r1 or r2 not in tgt:
                        continue
                    comp[(r2, c1)] = comp.get((r2, c1), 0) + v1 * v2
            assert all(v == 0 for v in comp.values())
            checked += 1
            if checked > 4:
                break


def test_euler_equals_oracle():
    rng = random.Random(43)
    diagrams = [parse_pd(""), braid_to_pd([1, 1, 1], 2), braid_to_pd([1, 1], 2),
                braid_to_pd([1, -2, 1, -2], 3)]
    diagrams += [random_braid_pd(rng) for _ in range(10)]
    for pd in diagrams:
        cx = build_complex(pd, KH)
        assert graded_euler_characteristic(cx) == kauffman_oracle(pd)


def test_oracle_values():
    assert kauffman_oracle(parse_pd("")) == CIRCLE
    assert kauffman_oracle(braid_to_pd([1], 2)) == CIRCLE
    assert kauffman_oracle(braid_to_pd([-1], 2)) == CIRCLE


def test_oracle_split_union_multiplies():
    t1 = braid_to_pd([1, 1, 1], 2)
    shift = max(t1.arcs())
    t2 = braid_to_pd([1, 1], 2)
    shifted = PDCode(tuple(tuple(a + shift for a in c) for c in t2.crossings))
    union = validate_pd(PDCode(t1.crossings + shifted.crossings))
    assert kauffman_oracle(union) == kauffman_oracle(t1) * kauffman_oracle(t2)


def test_too_large():
    pd = braid_to_pd([1] * 15, 2)
    with pytest.raises(TooLarge):
        build_complex(pd, KH)
    with pytest.raises(TooLarge):
        kauffman_oracle(pd)


@pytest.mark.parametrize("side", [KH, LEE])
def test_window_build_is_the_full_build_restricted(side):
    rng = random.Random(46)
    diagrams = [parse_pd("")]
    while len(diagrams) < 41:
        strands = rng.randint(2, 4)
        word = [rng.choice([1, -1]) * rng.randint(1, strands - 1)
                for _ in range(rng.randint(1, 9))]
        try:
            pd = braid_to_pd(word, strands)
        except InvalidBraid:
            continue
        diagrams += [pd, mirror(pd)]
    for pd in diagrams:
        full = build_complex(pd, side)
        assert full.omitted_qs == set()
        lo, hi = full.degrees[0], full.degrees[-1]
        mid = (lo + hi) // 2
        windows = [range(lo, lo + 1), range(lo - 2, lo + 2),   # bottom
                   range(hi - 1, hi + 1), range(hi, hi + 3),   # top
                   range(mid - 1, mid + 2), range(lo, hi + 1),
                   range(lo - 3, lo), range(hi + 1, hi + 4)]   # past the ends
        for window in windows:
            part = build_complex(pd, side, degrees=window)
            assert part.degrees == [i for i in full.degrees if i in window]
            for i in part.degrees:
                assert part.generators[i] == full.generators[i]
                assert part.q_degrees(i) == full.q_degrees(i)
            assert sorted(part.differentials) == [
                j for j in sorted(full.differentials)
                if j in window and j + 1 in window]
            for j in part.differentials:
                assert part.matrix(j) == full.matrix(j)
            assert _levels(part) == _levels(full), (pd, window)


def test_window_build_keeps_the_size_limit():
    with pytest.raises(TooLarge):
        build_complex(braid_to_pd([1] * 15, 2), LEE, degrees=range(0, 1))
