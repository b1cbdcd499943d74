import itertools
import random
import tracemalloc

import pytest

from knotfoam.diagram import (
    PDCode,
    State,
    braid_to_pd,
    link_components,
    mirror,
    parse_pd,
    smooth_state,
)
from knotfoam.errors import InvalidBraid, NotAComplex, TooLarge
from knotfoam.foam import Facet, Foam, evaluate_foam
from knotfoam.homology import reduce_complex, set_matrix
from knotfoam.khovanov import (
    KH,
    LEE,
    Generator,
    GradedChainComplex,
    _MAPS,
    build_complex,
    frobenius,
    graded_euler_characteristic,
    kauffman_oracle,
)
from knotfoam.lee import _levels
from knotfoam.polyring import IntPoly2, LaurentQ
from knotfoam.relations import load_fixture

CIRCLE = LaurentQ.circle()


def _generators(cx, i):
    return [cx.generator(i, k) for k in range(len(cx.q_degrees(i)))]


def random_braid_pd(rng, max_letters=6, strands=3):
    from knotfoam.errors import InvalidBraid

    while True:
        word = [rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(2, max_letters))]
        try:
            return braid_to_pd(word, strands)
        except InvalidBraid:
            continue


def test_edge_map_tables():
    m, d = frobenius(0, 0)
    assert m[(1, 1)] == {}
    assert m[(0, 0)] == {0: 1}
    assert m[(0, 1)] == {1: 1} and m[(1, 0)] == {1: 1}
    m_lee, d_lee = frobenius(0, -1)
    assert m_lee[(1, 1)] == {0: 1}
    assert d[0] == {(0, 1): 1, (1, 0): 1}
    assert d[1] == {(1, 1): 1}
    assert d_lee[1] == {(0, 0): 1, (1, 1): 1}
    # the whole tables, and the per-side lookup the cube reads
    assert m == {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}, (1, 1): {}}
    assert m_lee == {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1},
                     (1, 1): {0: 1}}
    assert d == {0: {(0, 1): 1, (1, 0): 1}, 1: {(1, 1): 1}}
    assert d_lee == {0: {(0, 1): 1, (1, 0): 1}, 1: {(0, 0): 1, (1, 1): 1}}
    assert _MAPS == {KH: (m, d), LEE: (m_lee, d_lee)}


def test_equivariant_table():
    # at e1 = X1 + X2 and e2 = X1 X2 every coefficient of the table shows
    e1, e2 = IntPoly2.x1_plus_x2(), IntPoly2.x1_times_x2()
    m, d = frobenius(e1, e2)
    assert m[(1, 1)] == {0: -e2, 1: e1}
    assert d == {0: {(0, 0): -e1, (0, 1): 1, (1, 0): 1},
                 1: {(0, 0): -e2, (1, 1): 1}}
    # a zero coefficient is dropped whatever its type
    assert frobenius(IntPoly2.zero(), e2)[1][0] == {(0, 1): 1, (1, 0): 1}


@pytest.mark.parametrize("side", ["kh", "lee", "", None])
def test_unknown_side_is_refused(side):
    pd = braid_to_pd([1, 1, 1], 2)
    with pytest.raises(ValueError, match="'Kh' or 'Lee'"):
        build_complex(pd, side)


def _times(merge, a, b):
    """The product of two algebra elements, as {label: coefficient}."""
    out = {0: IntPoly2.zero(), 1: IntPoly2.zero()}
    for la, ca in a.items():
        for lb, cb in b.items():
            for lt, v in merge[la, lb].items():
                out[lt] = out[lt] + ca * cb * v
    return out


def test_table_counit_matches_closed_blue_surfaces():
    # a closed blue surface of genus g with d dots evaluates to
    # (-1)^(chi/2) e(X^d h^g), chi = 2 - 2g, e the counit and
    # h = m(Delta(1)) the handle
    e1, e2 = IntPoly2.x1_plus_x2(), IntPoly2.x1_times_x2()
    merge, split = frobenius(e1, e2)
    zero, one = IntPoly2.zero(), IntPoly2.one()
    handle = {0: zero, 1: zero}
    for (la, lb), v in split[0].items():
        for lt, w in merge[la, lb].items():
            handle[lt] = handle[lt] + one * v * w
    assert handle == {0: -e1, 1: IntPoly2.constant(2)}
    checked = 0
    for g in range(4):
        element = {0: one, 1: zero}
        for _ in range(g):
            element = _times(merge, element, handle)
        for d in range(6):
            sign = -1 if (1 - g) % 2 else 1
            foam = Foam([Facet("S", "blue", genus=g, dots=d)])
            # the counit e reads the coefficient of X
            assert evaluate_foam(foam) == sign * element[1], (g, d)
            element = _times(merge, element, {0: zero, 1: one})
            checked += 1
    assert checked == 24
    # the sphere fixtures are g = 0 with d = 0 and 1
    for name, dots, value in ("sphere-blue", 0, 0), ("sphere-blue-dot", 1, -1):
        _name, _description, lhs, rhs = load_fixture(name)
        [(_coeff, foam)] = lhs.terms
        assert [f.dots for f in foam.facets] == [dots]
        assert evaluate_foam(foam) == IntPoly2.constant(value)
        assert sum((c for c, _f in rhs.terms), IntPoly2.zero()) == \
            IntPoly2.constant(value)


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
            for c, col in cx.matrix(i).items():
                for r in col:
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
            for c, col in lee.matrix(i).items():
                for r, v in col.items():
                    jump = qs_next[r] - qs[c]
                    assert jump in (0, 4)
                    if jump == 4:
                        # the deformation part never overlaps the Kh part
                        assert r not in kh_mat.get(c, {})
                    else:
                        assert kh_mat.get(c, {}).get(r) == v


@pytest.mark.parametrize("side", [KH, LEE])
def test_differentials_are_column_maps(side):
    # matrix(i) reads d_i as {col: {row: entry}}: columns index degree-i
    # generators, rows degree-(i+1) generators, with no empty column and
    # no zero entry; d_i holds a tuple of +1 rows and one of -1 rows per
    # column, and a cube build has no other entry
    rng = random.Random(47)
    diagrams = [parse_pd("")] + [random_braid_pd(rng) for _ in range(12)]
    complexes = [build_complex(pd, side) for pd in diagrams]
    mid = complexes[-1].degrees[len(complexes[-1].degrees) // 2]
    complexes.append(build_complex(diagrams[-1], side,
                                   degrees=range(mid - 1, mid + 2)))
    assert sorted(complexes[-1].differentials) == [mid - 1, mid]
    for cx in complexes:
        # the residue is laid out the same, and reducing leaves cx as is
        before = {i: cx.matrix(i) for i in cx.differentials}
        res = reduce_complex(cx)
        assert {i: cx.matrix(i) for i in cx.differentials} == before
        assert all(other == {} for _p, _m, other in cx.differentials.values())
        for x in cx, res:
            assert set(x.differentials) <= set(x.degrees)
            for i, (plus, minus, _other) in x.differentials.items():
                assert len(plus) == len(minus) == len(x.q_degrees(i))
                assert all(type(t) is tuple for t in plus + minus)
                for c, col in x.matrix(i).items():
                    assert isinstance(c, int)
                    assert 0 <= c < len(x.q_degrees(i))
                    assert col
                    for r, v in col.items():
                        assert isinstance(r, int)
                        assert 0 <= r < len(x.q_degrees(i + 1))
                        assert isinstance(v, int) and v != 0


@pytest.mark.parametrize("side", [KH, LEE])
def test_a_flipped_entry_breaks_d_squared(side):
    # flipping d_i[r, c], where d_{i+1} has a nonzero column r, changes
    # d_{i+1} d_i in column c, and d_i d_{i-1} in every column of d_{i-1}
    # with an entry in row c; the check names the first of these
    rng = random.Random(48)
    flipped = 0
    braids = []
    while len(braids) < 5:
        pd = random_braid_pd(rng, max_letters=7)
        if pd.n >= 4:
            braids.append(pd)
    for pd in braids:
        cx = build_complex(pd, side)
        cx.check_d_squared()
        mats = {i: cx.matrix(i) for i in cx.degrees}
        entries = [(i, r, c) for i in cx.differentials
                   for c, col in mats[i].items() for r in col
                   if r in mats.get(i + 1, {})]
        for i, r, c in rng.sample(entries, 5):
            before = [(i - 1, cx.q_degrees(i - 1)[k])
                      for k, col in mats.get(i - 1, {}).items() if c in col]
            degree, q = (before or [(i, cx.q_degrees(i)[c])])[0]
            d = mats[i]
            d[c][r] = -d[c][r]
            set_matrix(cx, i, d)
            with pytest.raises(NotAComplex, match=r"^d o d != 0 at degree "
                               r"%d in q-block %d$" % (degree, q)):
                cx.check_d_squared()
            d[c][r] = -d[c][r]
            set_matrix(cx, i, d)
            cx.check_d_squared()
            flipped += 1
    assert flipped >= 20


def _d_squared_by_products(cx):
    """The d o d gate product by product, as an exact integer sum per
    column of d_{i+1} d_i: None, or the message of the first nonzero
    column, degrees ascending and columns in the order of d_i."""
    for i in cx.degrees:
        d1, d2 = cx.matrix(i), cx.matrix(i + 1)
        for c, col in d1.items():
            acc = {}
            for k, v in col.items():
                for r, w in d2.get(k, {}).items():
                    acc[r] = acc.get(r, 0) + v * w
            if any(acc.values()):
                return ("d o d != 0 at degree %d in q-block %d"
                        % (i, cx.q_degrees(i)[c]))
    return None


def _d_squared_outcome(cx):
    try:
        cx.check_d_squared()
    except NotAComplex as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("side", [KH, LEE])
def test_d_squared_matches_the_product_by_product_sum(side):
    # built complexes, and copies with one entry flipped, scaled by 2 or
    # -3 (which sends its columns to the exact sum) or deleted
    rng = random.Random(49)
    edits = {"flip": -1, "double": 2, "times -3": -3, "delete": 0}
    broken = dict.fromkeys(edits, 0)
    for _ in range(20):
        cx = build_complex(random_braid_pd(rng, max_letters=7), side)
        assert _d_squared_outcome(cx) is None
        assert _d_squared_by_products(cx) is None
        entries = [(i, c, r) for i in cx.differentials
                   for c, col in cx.matrix(i).items() for r in col]
        for edit, factor in edits.items():
            i, c, r = rng.choice(entries)
            copy = GradedChainComplex(cx.side, cx.n_plus, cx.n_minus)
            copy.qs = cx.qs
            for j in cx.differentials:
                set_matrix(copy, j, cx.matrix(j))
            d = copy.matrix(i)
            if factor:
                d[c][r] *= factor
            else:
                del d[c][r]
            set_matrix(copy, i, d)
            expected = _d_squared_by_products(copy)
            assert _d_squared_outcome(copy) == expected, (edit, i, c, r)
            broken[edit] += expected is not None
    assert min(broken.values()) >= 10, broken


@pytest.mark.parametrize("side", [KH, LEE])
def test_moving_a_row_to_the_other_sign_tuple_breaks_d_squared(side):
    # moving row r of a cube column from its +1 tuple to its -1 tuple, or
    # back, flips d_i[r, c]: the check names the same degree and q-block
    # as the flip made through set_matrix
    rng = random.Random(50)
    moved = 0
    while moved < 20:
        pd = random_braid_pd(rng, max_letters=7)
        if pd.n < 4:
            continue
        cx = build_complex(pd, side)
        mats = {i: cx.matrix(i) for i in cx.degrees}
        entries = [(i, r, c) for i in cx.differentials
                   for c, col in mats[i].items() for r in col
                   if r in mats.get(i + 1, {})]
        for i, r, c in rng.sample(entries, 4):
            flipped = GradedChainComplex(cx.side, cx.n_plus, cx.n_minus)
            flipped.qs = cx.qs
            mats[i][c][r] *= -1
            for j, d in mats.items():
                set_matrix(flipped, j, d)
            mats[i][c][r] *= -1
            expected = _d_squared_outcome(flipped)
            assert expected is not None
            plus, minus, _other = cx.differentials[i]
            src, dst = (plus, minus) if r in plus[c] else (minus, plus)
            kept = src[c], dst[c]
            src[c] = tuple(x for x in src[c] if x != r)
            dst[c] += (r,)
            assert _d_squared_outcome(cx) == expected
            assert _d_squared_by_products(cx) == expected
            src[c], dst[c] = kept
            assert cx.check_d_squared()
            moved += 1


def _assert_entries_follow_the_edge_maps(pd, side):
    """Every entry, with its target labels, read off the cube directly."""
    merge, split = _MAPS[side]
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
    for i in cx.differentials:
        for c, col in cx.matrix(i).items():
            for r, v in col.items():
                g, h = cx.generator(i, c), cx.generator(i + 1, r)
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
    for i in cx.degrees:
        for g in _generators(cx, i):
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
        assert max(len(g.circles) for i in cx.degrees
                   for g in _generators(cx, i)) >= 5


def test_two_faces_anticommute():
    rng = random.Random(42)
    for _ in range(10):
        pd = random_braid_pd(rng, max_letters=5)
        cx = build_complex(pd, KH)
        by_state = {}
        for i in cx.degrees:
            for idx, g in enumerate(_generators(cx, i)):
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
            src = set(cx.state_run(i, st))
            mid = {*cx.state_run(i + 1, sj), *cx.state_run(i + 1, sk)}
            tgt = set(cx.state_run(i + 2, sjk))
            for c1, col1 in d1.items():
                for r1, v1 in col1.items():
                    if c1 not in src or r1 not in mid:
                        continue
                    for r2, v2 in d2.get(r1, {}).items():
                        if r2 not in tgt:
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
    union = PDCode(t1.crossings + shifted.crossings)
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
                assert _generators(part, i) == _generators(full, i)
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


def _rebuilt_generators(pd, i, n_minus, n_plus):
    """The degree-i generators in build order, from smooth_state alone."""
    out = []
    for mask in range(2 ** pd.n):
        st = tuple(mask >> j & 1 for j in range(pd.n))
        if sum(st) - n_minus != i:
            continue
        membership = smooth_state(pd, State(st)).membership
        cids = tuple(sorted(set(membership.values()))) if pd.n else (0,)
        for labels in itertools.product((0, 1), repeat=len(cids)):
            q = len(cids) - 2 * sum(labels) + i + n_plus - n_minus
            out.append(Generator(st, cids, labels, i, q))
    return out


def test_generator_view_equals_a_rebuild_from_smooth_state():
    diagrams = [parse_pd(""), braid_to_pd([1, 1, 1], 2),
                braid_to_pd([1, -2, 1, -2], 3), braid_to_pd([1, 1], 2),
                braid_to_pd([1, 1, 2, 2, 2], 3), braid_to_pd([-1, 2, -1, 2, 2], 3)]
    for pd in diagrams:
        for side in KH, LEE:
            cx = build_complex(pd, side)
            for i in cx.degrees:
                gens = _generators(cx, i)
                assert gens == _rebuilt_generators(pd, i, cx.n_minus, cx.n_plus)
                assert [g.q_degree for g in gens] == cx.q_degrees(i)
                runs = {}
                for k, g in enumerate(gens):
                    runs.setdefault(g.state, []).append(k)
                for st, run in runs.items():
                    assert list(cx.state_run(i, st)) == run


def test_each_index_is_one_int_object():
    # every row of d_i is one of dim(i + 1) objects, however many entries
    # name it; a column is a position, one per degree-i generator
    for pd in braid_to_pd([1] * 7, 2), braid_to_pd([1, -2] * 4, 3):
        full = build_complex(pd, LEE)
        mid = full.degrees[len(full.degrees) // 2]
        for cx in full, build_complex(pd, LEE, degrees=range(mid - 1, mid + 2)):
            assert max(len(cx.q_degrees(i)) for i in cx.degrees) > 256
            for i, (plus, minus, _other) in cx.differentials.items():
                assert len(plus) == len(minus) == len(cx.q_degrees(i))
                assert len({id(r) for rows in plus + minus for r in rows}) \
                    <= len(cx.q_degrees(i + 1))


def test_a_lee_build_after_the_walk_allocates_little():
    # the 10-crossing 3-component link of the links-kh benchmark, 9,720
    # generators: with a dict per column its Lee build took 3.64 MiB
    pd = braid_to_pd([1, -2, 1, -2, 1, -2, 1, 1, -2, -2], 3)
    build_complex(pd, KH)  # the walk, and the states of every height
    tracemalloc.start()
    try:
        cx = build_complex(pd, LEE)
        size, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cx.total_dim() == 9720
    assert size < 1.5 * 2 ** 20, size


def test_closed_form_levels_are_the_cube_q_set():
    # windows keep these levels: test_window_build_is_the_full_build_restricted
    rng = random.Random(49)
    diagrams = [parse_pd(""), braid_to_pd([1], 2), braid_to_pd([-1], 2)]
    while len(diagrams) < 63:
        strands = rng.randint(2, 5)
        word = [rng.choice([1, -1]) * rng.randint(1, strands - 1)
                for _ in range(rng.randint(1, 9))]
        try:
            pd = braid_to_pd(word, strands)
        except InvalidBraid:
            continue
        diagrams += [pd, mirror(pd)]
    for pd in diagrams:
        full = build_complex(pd, KH)
        qs = sorted({q for i in full.degrees for q in full.q_degrees(i)})
        assert list(full.q_levels) == qs, pd
        assert _levels(full) == qs + [qs[-1] + 1]



def _shared_walk_diagrams():
    """Seeded 3-9-crossing braid closures, two of each kind: knots and
    links, with positive, negative and mixed crossings."""
    rng = random.Random(57)
    found = {}
    while sum(map(len, found.values())) < 12:
        strands, sign = rng.randint(2, 4), rng.choice([1, -1, 0])  # 0: mixed
        word = [(sign or rng.choice([1, -1])) * rng.randint(1, strands - 1)
                for _ in range(rng.randint(3, 9))]
        if sign == 0 and len({w > 0 for w in word}) == 1:
            continue
        try:
            pd = braid_to_pd(word, strands)
        except InvalidBraid:
            continue
        same = found.setdefault((sign, link_components(pd) > 1), [])
        if len(same) < 2:
            same.append(pd)
    return [pd for same in found.values() for pd in same]


def _built(cx):
    return cx.qs, cx.runs, cx.q_levels, cx.differentials


def test_builds_sharing_a_walk_equal_builds_on_fresh_codes():
    for pd in _shared_walk_diagrams():
        degrees = build_complex(parse_pd(str(pd)), LEE).degrees
        builds = [(KH, None), (LEE, None)] + [
            (LEE, range(i - 1, i + 2)) for i in degrees]
        fresh = [_built(build_complex(parse_pd(str(pd)), side, degrees=window))
                 for side, window in builds]
        for order in builds, builds[::-1]:  # full-first, window-first
            shared = parse_pd(str(pd))
            for side, window in order:
                got = _built(build_complex(shared, side, degrees=window))
                assert got == fresh[builds.index((side, window))], (pd, side, window)


def test_a_window_build_fills_only_its_heights():
    pd = braid_to_pd([1, -2, 1, -2, 1], 3)
    cx = build_complex(pd, LEE, degrees=range(-1, 2))
    assert sorted(pd.cube.heights) == [h + cx.n_minus for h in cx.degrees]


def test_editing_a_build_changes_no_later_build():
    for pd in _shared_walk_diagrams()[:6]:
        text = str(pd)
        for side in KH, LEE:
            cx = build_complex(pd, side)
            i = cx.degrees[0]
            cx.qs[i].append(99)
            cx.runs[i].clear()
            cx.q_levels = range(0)
            d = cx.matrix(i)
            first = next(iter(d.values()))
            first[next(iter(first))] = 7
            set_matrix(cx, i, d)
            plus, minus, _other = cx.differentials[i + 1]
            plus[0], minus[0] = minus[0], plus[0]
        part = build_complex(pd, LEE, degrees=range(i, i + 2))
        reduce_complex(part, rational=True, consume=True)
        for side in KH, LEE:
            assert _built(build_complex(pd, side)) == \
                _built(build_complex(parse_pd(text), side)), (text, side)


def test_a_build_leaves_the_code_value_alone():
    for pd in _shared_walk_diagrams():
        before = (pd, hash(pd), repr(pd), str(pd))
        twin = parse_pd(str(pd))
        build_complex(pd, LEE, degrees=range(0, 2))
        build_complex(pd, KH)
        assert (pd, hash(pd), repr(pd), str(pd)) == before
        assert pd == twin and hash(pd) == hash(twin) and repr(pd) == repr(twin)


def test_kh_lee_and_s_of_one_code_walk_the_cube_once(monkeypatch):
    import knotfoam.khovanov
    from knotfoam.diagram import _smoothings
    from knotfoam.lee import build_lee, s_invariant

    calls = []

    def counting(pd):
        calls.append(pd)
        return _smoothings(pd)

    monkeypatch.setattr(knotfoam.khovanov, "_smoothings", counting)
    for pd in braid_to_pd([1, 2, -1, 2], 3), braid_to_pd([1, -2] * 4, 3):
        calls.clear()
        build_complex(pd, KH)
        build_lee(pd)
        s_invariant(pd)
        assert calls == [pd]
        s_invariant(mirror(pd))  # a new code walks its own cube
        assert len(calls) == 2
