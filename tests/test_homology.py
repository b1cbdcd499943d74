import itertools
import random

import pytest

from knotfoam._linalg import RowBasis
from knotfoam.diagram import braid_to_pd, parse_pd
from knotfoam.errors import NotAComplex
from knotfoam.homology import (
    HomologyTable,
    integral_homology,
    smith_normal_form,
)
from knotfoam.khovanov import (
    KH,
    Generator,
    GradedChainComplex,
    build_complex,
    graded_euler_characteristic,
    kauffman_oracle,
)


def _entries(m):
    return {(r, c): v for r, row in enumerate(m) for c, v in enumerate(row) if v}


def test_snf_examples():
    assert smith_normal_form({(0, 0): 2}).invariant_factors == (2,)
    assert smith_normal_form(
        {(0, 0): 1, (0, 1): 2, (1, 0): 3, (1, 1): 4}).invariant_factors == (1, 2)
    assert smith_normal_form({}).invariant_factors == ()


def test_snf_divisibility_chain():
    rng = random.Random(50)
    for _ in range(100):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        m = [[rng.randint(-8, 8) for _ in range(cols)] for _ in range(rows)]
        fs = smith_normal_form(_entries(m)).invariant_factors
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
    fs = smith_normal_form(_entries(m)).invariant_factors
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
    g0 = Generator((), (0,), (0,), 0, 0)
    g1 = Generator((), (0,), (0,), 1, 0)
    cx.generators[0] = [g0]
    cx.generators[1] = [g1]
    cx.differentials[0] = {(0, 0): entry}
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
    assert table.total_rank() == 4
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


def _rank_over_q(entries):
    columns = {}
    for (r, c), v in entries.items():
        columns.setdefault(c, {})[r] = v
    basis = RowBasis()
    for col in columns.values():
        basis.add(col)
    return basis.rank


def test_rational_betti_matches_integral():
    # per degree, the free rank of Kh over Z (SNF) against
    # dim - rank d_i - rank d_{i-1} over Q (RowBasis)
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
            assert betti == cx.dim(i) - ranks[i] - ranks.get(i - 1, 0)


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
    g2 = Generator((), (0,), (0,), 2, 0)
    cx.generators[2] = [g2]
    cx.differentials[1] = {(0, 0): 1}
    with pytest.raises(NotAComplex):
        integral_homology(cx)


def test_homology_table_helpers():
    t = HomologyTable({(0, 1): (2, []), (1, 3): (0, [2])})
    assert t.betti(0, 1) == 2
    assert t.torsion(1, 3) == [2]
    assert t.betti(9, 9) == 0
    assert t.total_rank() == 2
