import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from knotfoam.diagram import braid_to_pd, parse_pd
from knotfoam.errors import NotAComplex
from knotfoam.homology import (
    HomologyTable,
    integral_homology,
    reduce_complex,
    set_matrix,
    smith_normal_form,
)
from knotfoam.khovanov import (
    KH,
    LEE,
    GradedChainComplex,
    build_complex,
    graded_euler_characteristic,
    kauffman_oracle,
)
from knotfoam.lee import filtration_profile


def _entries(m):
    return {(r, c): v for r, row in enumerate(m) for c, v in enumerate(row) if v}


def test_snf_examples():
    assert smith_normal_form({(0, 0): 2}) == (2,)
    assert smith_normal_form(
        {(0, 0): 1, (0, 1): 2, (1, 0): 3, (1, 1): 4}) == (1, 2)
    assert smith_normal_form({}) == ()


def test_snf_divisibility_chain():
    rng = random.Random(50)
    for _ in range(100):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        m = [[rng.randint(-8, 8) for _ in range(cols)] for _ in range(rows)]
        fs = smith_normal_form(_entries(m))
        for a, b in zip(fs, fs[1:]):
            assert a > 0 and b % a == 0


def _minor_gcd(m, k):
    rows = range(len(m))
    cols = range(len(m[0]))
    from math import gcd

    def det(sub_r, sub_c):
        if k == 1:
            return m[sub_r[0]][sub_c[0]]
        if k == 2:
            (a, b), (c, d) = sub_r, sub_c
            return m[a][c] * m[b][d] - m[a][d] * m[b][c]
        (a, b, e), (c, d, f) = sub_r, sub_c
        return (
            m[a][c] * (m[b][d] * m[e][f] - m[b][f] * m[e][d])
            - m[a][d] * (m[b][c] * m[e][f] - m[b][f] * m[e][c])
            + m[a][f] * (m[b][c] * m[e][d] - m[b][d] * m[e][c])
        )

    g = 0
    for sr in itertools.combinations(rows, k):
        for sc in itertools.combinations(cols, k):
            g = gcd(g, abs(det(sr, sc)))
    return g


def _assert_minor_gcds(m):
    # the product of the first k invariant factors is the gcd of all
    # k x k minors
    fs = smith_normal_form(_entries(m))
    prod = 1
    for k in range(1, min(len(m), len(m[0])) + 1):
        g = _minor_gcd(m, k)
        if k <= len(fs):
            prod *= fs[k - 1]
            assert prod == g
        else:
            assert g == 0


def test_snf_matches_minor_gcds():
    rng = random.Random(51)
    for _ in range(40):
        rows, cols = rng.randint(1, 3), rng.randint(1, 3)
        _assert_minor_gcds(
            [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)])


def test_snf_unit_free_matches_minor_gcds():
    # no +-1 entry, so no unit pivot: the whole matrix is the dense core
    rng = random.Random(52)
    values = (0, 2, -2, 3, -3, 4, -4, 6, -6)
    for _ in range(40):
        rows, cols = rng.randint(1, 3), rng.randint(1, 3)
        _assert_minor_gcds(
            [[rng.choice(values) for _ in range(cols)] for _ in range(rows)])


def _two_term_complex(entry):
    # 0 -> Z --entry--> Z -> 0 concentrated in degrees 0, 1 at q = 0
    cx = GradedChainComplex(KH, 0, 0)
    cx.qs[0] = [0]
    cx.qs[1] = [0]
    set_matrix(cx, 0, {0: {0: entry}})
    return cx


def test_multiplication_by_two_gives_torsion():
    table = integral_homology(_two_term_complex(2))
    assert table.entries == {(1, 0): (0, [2])}


def test_unknot_homology():
    table = integral_homology(build_complex(parse_pd(""), KH))
    assert table.rows() == [(0, -1, 1, []), (0, 1, 1, [])]


def test_trefoil_homology():
    pd = braid_to_pd([1, 1, 1], 2)
    cx = build_complex(pd, KH)
    table = integral_homology(cx)
    assert sum(b for _, _, b, _ in table.rows()) == 4
    assert table.total_torsion() == 1
    assert table.rows() == [
        (0, 1, 1, []),
        (0, 3, 1, []),
        (2, 5, 1, []),
        (3, 7, 0, [2]),
        (3, 9, 1, []),
    ]
    assert table.graded_euler() == kauffman_oracle(pd)


def test_prime_power_torsion_orders():
    table = integral_homology(_two_term_complex(12))
    assert table.entries == {(1, 0): (0, [3, 4])}


def _rank_over_q(columns):
    """Rank by dense row reduction over Fraction, sharing no code with
    the elimination engine."""
    keys = sorted({r for col in columns.values() for r in col})
    m = [[Fraction(col.get(r, 0)) for r in keys] for col in columns.values()]
    rank = 0
    for j in range(len(keys)):
        pivot = next((k for k in range(rank, len(m)) if m[k][j]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for k in range(rank + 1, len(m)):
            f = m[k][j] / m[rank][j]
            m[k] = [a - f * b for a, b in zip(m[k], m[rank])]
        rank += 1
    return rank


def test_rational_betti_matches_integral():
    # per degree, the free rank of Kh over Z (SNF) against
    # dim - rank d_i - rank d_{i-1} over Q (dense row reduction)
    rng = random.Random(53)
    from knotfoam.errors import InvalidBraid

    for _ in range(8):
        word = [rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(2, 5))]
        try:
            pd = braid_to_pd(word, 3)
        except InvalidBraid:
            continue
        cx = build_complex(pd, KH)
        table = integral_homology(cx)
        ranks = {i: _rank_over_q(cx.matrix(i)) for i in cx.degrees}
        for i in cx.degrees:
            betti = sum(b for (d, _q), (b, _t) in table.entries.items()
                        if d == i)
            assert betti == (len(cx.q_degrees(i)) - ranks[i]
                             - ranks.get(i - 1, 0))


def test_filtered_elimination_by_hand():
    # degree 0: a, b at q 0; degree 1: p at q 0, r and t at q 4.
    # d(a) = 2p + r: a q-preserving 2, no unit over Z, and a jump 4;
    # d(b) = r + t.  The chain p + r is carried in degree 1.
    cx = GradedChainComplex(LEE, 0, 0)
    cx.qs[0] = [0, 0]
    cx.qs[1] = [0, 4, 4]
    set_matrix(cx, 0, {0: {0: 2, 1: 1}, 1: {1: 1, 2: 1}})
    carried = [(1, {0: 1, 1: 1})]
    res = reduce_complex(cx, cycles=carried)
    assert res.qs == {0: [0, 0], 1: [0, 4, 4]}  # nothing cancels over Z
    # over Q, a -> 2p + r goes at jump 0 (p + r becomes r / 2), then
    # b -> r + t at jump 4 (r / 2 becomes -t / 2); t survives at q 4,
    # and so does [p + r], as p + r - d(a) / 2 = r / 2
    e_inf = reduce_complex(cx, cycles=carried, rational=True)
    assert e_inf.qs == {0: [], 1: [4]}
    assert e_inf.matrix(0) == {}
    assert e_inf.cycles == [(1, {0: Fraction(-1, 2)})]
    cx.q_levels = range(0, 5, 2)
    assert filtration_profile(cx) == {0: 1, 2: 1, 4: 1, 5: 0}
    # cancelling d_0 leaves [p + r] supported at q 4 only, so its
    # filtration degree is 4; the residue keeps the complex's q-levels
    res = reduce_complex(cx, carried, rational=True)
    assert [res.q_degrees(1)[r] for r in res.cycles[0][1]] == [4]
    assert res.q_levels == cx.q_levels


def test_integral_reduction_keeps_int_entries():
    res = reduce_complex(build_complex(braid_to_pd([1, 1, 1], 2), KH))
    entries = [v for i in res.degrees for col in res.matrix(i).values()
               for v in col.values()]
    assert entries and all(type(v) is int for v in entries)


def test_euler_conservation():
    rng = random.Random(54)
    from knotfoam.errors import InvalidBraid

    for _ in range(8):
        word = [rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(2, 5))]
        try:
            pd = braid_to_pd(word, 3)
        except InvalidBraid:
            continue
        cx = build_complex(pd, KH)
        assert integral_homology(cx).graded_euler() == graded_euler_characteristic(cx)


def test_not_a_complex():
    cx = _two_term_complex(1)
    cx.qs[2] = [0]
    set_matrix(cx, 1, {0: {0: 1}})
    with pytest.raises(NotAComplex, match=r"d o d != 0 at degree 0 in q-block 0"):
        integral_homology(cx)
    # a Khovanov differential must keep q
    cx = _two_term_complex(1)
    cx.qs[1] = [2]
    with pytest.raises(NotAComplex, match=r"d_0 sends q-degree 0 to q-degree 2"):
        integral_homology(cx)


def _three_term_complex(d0, d1):
    # Z^a --d0--> Z^b --d1--> Z^c in degrees 0, 1, 2, all at q = 0; the
    # column maps {col: {row: entry}} give the sizes
    cx = GradedChainComplex(KH, 0, 0)
    cx.qs[0] = [0] * len(d0)
    cx.qs[1] = [0] * len(d1)
    cx.qs[2] = [0] * (1 + max(r for col in d1.values() for r in col))
    set_matrix(cx, 0, d0)
    set_matrix(cx, 1, d1)
    return cx


def test_d_squared_with_entries_other_than_units():
    broken = r"^d o d != 0 at degree 0 in q-block 0$"
    # 2 * 3 - 6 in one column, then 2 * 3 - 5
    assert _three_term_complex({0: {0: 2, 1: 1}},
                               {0: {0: 3}, 1: {0: -6}}).check_d_squared()
    cx = _three_term_complex({0: {0: 2, 1: 1}}, {0: {0: 3}, 1: {0: -5}})
    with pytest.raises(NotAComplex, match=broken):
        cx.check_d_squared()
    # a column of units in d_0 that meets columns of d_1 with other entries
    assert _three_term_complex({0: {0: 1, 1: -1}},
                               {0: {0: 6}, 1: {0: 6}}).check_d_squared()
    cx = _three_term_complex({0: {0: 1, 1: -1}}, {0: {0: 6}, 1: {0: 5}})
    with pytest.raises(NotAComplex, match=broken):
        cx.check_d_squared()
    # entries of 10**12: the cost does not grow with their size
    big = 10 ** 12
    t0 = time.perf_counter()
    assert _three_term_complex({0: {0: big, 1: big}},
                               {0: {0: big}, 1: {0: -big}}).check_d_squared()
    assert time.perf_counter() - t0 < 1
    cx = _three_term_complex({0: {0: big, 1: -big}},
                             {0: {0: big}, 1: {0: big - 1}})
    with pytest.raises(NotAComplex, match=broken):
        cx.check_d_squared()


def test_d_squared_counts_multiplicities():
    # column 0 reaches row 0 twice with + and once with -: the same set of
    # rows on both sides, but not the same multiset
    cx = _three_term_complex({0: {0: 1, 1: 1, 2: 1}},
                             {0: {0: 1}, 1: {0: 1}, 2: {0: -1}})
    with pytest.raises(NotAComplex, match=r"^d o d != 0 at degree 0 in q-block 0$"):
        cx.check_d_squared()
    d0, d1 = cx.matrix(0), cx.matrix(1)
    d0[0][3] = -1
    d1[3] = {0: 1}
    cx.qs[1].append(0)
    set_matrix(cx, 0, d0)
    set_matrix(cx, 1, d1)
    assert cx.check_d_squared()


def test_an_entry_of_two_goes_through_the_exact_path(monkeypatch):
    # the 2 is kept apart from the unit rows, and its column, and each
    # column that meets it in d_1, is summed exactly by apply
    applied = []
    real = GradedChainComplex.apply

    def spy(cx, i, chain):
        applied.append((i, dict(chain)))
        return real(cx, i, chain)

    monkeypatch.setattr(GradedChainComplex, "apply", spy)
    cx = _three_term_complex({0: {0: 2, 1: 1}}, {0: {0: 3}, 1: {0: -6}})
    assert cx.differentials[0] == ([(1,)], [()], {0: {0: 2}})
    assert cx.check_d_squared()
    assert applied == [(1, {0: 2, 1: 1})]
    cx = _three_term_complex({0: {0: 1, 1: 1}}, {0: {0: 2}, 1: {0: -2}})
    assert cx.check_d_squared()
    assert applied[1:] == [(1, {0: 1, 1: 1})]
    # units alone never take it
    del applied[:]
    assert _three_term_complex({0: {0: 1, 1: 1}},
                               {0: {0: 1}, 1: {0: -1}}).check_d_squared()
    assert applied == []


def test_snf_of_dense_matrices_gives_the_determinant():
    # dense blocks with few unit entries go through the dense routine;
    # the product of the invariant factors of a square matrix is |det|
    rng = random.Random(56)
    for _ in range(60):
        n = rng.randint(5, 9)
        m = [[rng.randint(-12, 12) for _ in range(n)] for _ in range(n)]
        rows = [[Fraction(v) for v in row] for row in m]
        det = Fraction(1)
        for k in range(n):
            pivot = next((r for r in range(k, n) if rows[r][k]), None)
            if pivot is None:
                det = Fraction(0)
                break
            if pivot != k:
                rows[k], rows[pivot] = rows[pivot], rows[k]
                det = -det
            det *= rows[k][k]
            for r in range(k + 1, n):
                f = rows[r][k] / rows[k][k]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[k])]
        fs = smith_normal_form(_entries(m))
        assert all(b % a == 0 for a, b in zip(fs, fs[1:]))
        if det:
            assert len(fs) == n and math.prod(fs) == abs(det)
        else:
            assert len(fs) < n


def test_mirror_duality():
    # Kh(mirror): the free part at (i, q) is that of Kh at (-i, -q), the
    # torsion at (i, q) that of Kh at (1 - i, -q); the mirror goes in as
    # its Lee complex, whose q-preserving part is its Khovanov complex
    from knotfoam.diagram import mirror
    from knotfoam.errors import InvalidBraid
    from knotfoam.khovanov import LEE

    def parts(table):
        free = {k: b for k, (b, _t) in table.entries.items() if b}
        torsion = {k: t for k, (_b, t) in table.entries.items() if t}
        return free, torsion

    rng = random.Random(57)
    checked = 0
    while checked < 25:
        strands = rng.randint(2, 4)
        word = [rng.choice([1, -1]) * rng.randint(1, strands - 1)
                for _ in range(rng.randint(2, 8))]
        try:
            pd = braid_to_pd(word, strands)
        except InvalidBraid:
            continue
        free, torsion = parts(integral_homology(build_complex(pd, KH)))
        m_free, m_torsion = parts(
            integral_homology(build_complex(mirror(pd), LEE)))
        assert m_free == {(-i, -q): b for (i, q), b in free.items()}, word
        assert m_torsion == {(1 - i, -q): t
                             for (i, q), t in torsion.items()}, word
        checked += 1


def test_homology_table_helpers():
    t = HomologyTable({(0, 1): (2, []), (1, 3): (0, [2])})
    assert t.entries[(0, 1)][0] == 2
    assert t.entries[(1, 3)][1] == [2]
    assert (9, 9) not in t.entries
    assert t.rows() == [(0, 1, 2, []), (1, 3, 0, [2])]


def _seeded_closures(count):
    """``count`` closures of random 2-4-strand braids of 1-6 letters."""
    from knotfoam.errors import InvalidBraid

    rng = random.Random(59)
    out = []
    while len(out) < count:
        strands = rng.randint(2, 4)
        word = [rng.choice([1, -1]) * rng.randint(1, strands - 1)
                for _ in range(rng.randint(1, 6))]
        try:
            out.append(braid_to_pd(word, strands))
        except InvalidBraid:
            continue
    return out


def _reductions(pd):
    """(build, cycles, rational) of each reduction an owner runs: the Kh
    complex, the CLI's Lee complex and, for a knot, the s window carrying
    the two oriented-resolution cycles."""
    from knotfoam.diagram import link_components
    from knotfoam.lee import build_lee, oriented_resolution_generators

    out = [(lambda: build_complex(pd, KH), (), False)]
    if link_components(pd) != 1:
        return out + [(lambda: build_lee(pd), (), False)]
    classes = oriented_resolution_generators(pd, build_lee(pd))
    i = classes[0][0]
    window = range(i - 1, i + 2)
    return out + [(lambda: build_lee(pd), classes, False),
                  (lambda: build_complex(pd, LEE, degrees=window), classes,
                   True)]


def test_owning_reduction_matches_the_copying_one():
    for pd in _seeded_closures(20):
        for build, cycles, rational in _reductions(pd):
            copied = reduce_complex(build(), cycles, rational)
            owned = build()
            assert any(owned.matrix(i) for i in owned.degrees)
            res = reduce_complex(owned, cycles, rational, consume=True)
            assert res.qs == copied.qs
            assert [res.matrix(i) for i in res.degrees] == \
                [copied.matrix(i) for i in copied.degrees]
            assert res.cycles == copied.cycles
            assert not any(owned.matrix(i) for i in owned.degrees)
            assert owned.differentials == {}  # released, not emptied


def test_readers_leave_the_complex_they_are_given_unchanged():
    import copy

    from knotfoam.diagram import link_components
    from knotfoam.lee import (build_lee, lee_invariants, lee_rank,
                              oriented_resolution_generators)

    for pd in _seeded_closures(20):
        components = link_components(pd)
        kh, lee = build_complex(pd, KH), build_lee(pd)
        knot = components == 1
        classes = oriented_resolution_generators(pd, lee) if knot else ()
        res = reduce_complex(lee, cycles=classes)
        given = [kh, lee, res]
        before = [copy.deepcopy(vars(cx)) for cx in given]
        integral_homology(kh)
        integral_homology(lee)
        lee_rank(lee, components)
        lee_invariants(res, components)
        filtration_profile(lee)
        reduce_complex(lee, rational=True)
        assert [vars(cx) for cx in given] == before


def _kunneth(t1, t2, tor=True):
    """The Khovanov table of a split union, over Z, from its factors'
    tables: the tensor product of the groups at (i1, q1) and (i2, q2)
    sits at (i1 + i2, q1 + q2) and their Tor, the differential raising
    the degree, at (i1 + i2 - 1, q1 + q2)."""
    out = {}

    def add(key, betti, torsion):
        b, t = out.get(key, (0, []))
        out[key] = (b + betti, t + torsion)

    for (i1, q1), (b1, tors1) in t1.entries.items():
        for (i2, q2), (b2, tors2) in t2.entries.items():
            # Z/p^a (x) Z/p^b = Tor(Z/p^a, Z/p^b) = Z/p^min(a, b)
            shared = [min(m, n) for m in tors1 for n in tors2
                      if math.gcd(m, n) > 1]
            add((i1 + i2, q1 + q2), b1 * b2, tors1 * b2 + tors2 * b1 + shared)
            if tor:
                add((i1 + i2 - 1, q1 + q2), 0, shared)
    return {k: (b, sorted(t)) for k, (b, t) in out.items() if b or t}


def test_split_union_is_the_kunneth_sum_of_its_factors():
    # beta1 on strands 1..a and beta2 shifted onto a+1..a+b close up to
    # the split union of their closures
    from knotfoam.errors import InvalidBraid

    def kh(word, strands):
        return integral_homology(build_complex(braid_to_pd(word, strands), KH))

    rng = random.Random(58)

    def factor():
        while True:
            strands = rng.randint(2, 3)
            word = [rng.choice([1, -1]) * rng.randint(1, strands - 1)
                    for _ in range(rng.randint(2, 4))]
            try:
                return word, strands, kh(word, strands)
            except InvalidBraid:
                continue

    trefoil = ([1, 1, 1], 2, kh([1, 1, 1], 2))
    figure_eight = ([1, -2, 1, -2], 3, kh([1, -2, 1, -2], 3))
    unions = [(trefoil, trefoil), (trefoil, figure_eight)]
    unions += [(factor(), factor()) for _ in range(50)]

    def union(f1, f2):
        (w1, a, _t1), (w2, b, _t2) = f1, f2
        return kh(w1 + [x + a if x > 0 else x - a for x in w2], a + b).entries

    for f1, f2 in unions:
        assert union(f1, f2) == _kunneth(f1[2], f2[2]), (f1[:2], f2[:2])
    # Tor(Z/2, Z/2) = Z/2 is part of both torsion unions
    for f1, f2 in unions[:2]:
        assert union(f1, f2) != _kunneth(f1[2], f2[2], tor=False)
