import ast
import random
import tracemalloc

import pytest

import pd_oracle
from knotfoam.diagram import (
    PDCode,
    State,
    braid_to_pd,
    compute_signs,
    link_components,
    mirror,
    oriented_state,
    parse_pd,
    r2_sites,
    regions,
    reidemeister_move,
    _smoothings,
    _trace,
    smooth_state,
)
from knotfoam.errors import InvalidBraid, InvalidDiagram, InvalidSite, ParseError
from knotfoam.khovanov import build_complex


def test_parse_basic():
    pd = parse_pd("X[1,4,2,5];X[3,6,4,1];X[5,2,6,3]")
    assert pd.n == 3
    assert parse_pd("[[1,4,2,5],[3,6,4,1],[5,2,6,3]]").n == 3
    assert parse_pd("").n == 0


def test_parse_kink():
    # valid one-crossing unknot: the orientation trace closes up
    pd = parse_pd("X[1,1,2,2]")
    assert pd.n == 1
    assert link_components(pd) == 1


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_pd("Y[1,2,3,4]")
    with pytest.raises(InvalidDiagram):
        parse_pd("X[1,2,3,4]")  # arcs appearing once
    with pytest.raises(InvalidDiagram):
        PDCode(((1, 1, 1, 1),))


# list literals of the wrong shape; a float, str, bool or None label is
# not coerced
MISSHAPEN_PD_LISTS = [
    "(7)", "(1,2,3,4)", "[1,2,3,4]", "[[1,2,3,4],5]", "[{1,2,3,4}]",
    "[{1: 2}]", "[[1,2,3]]", "[[1,1,2,2,3]]", "[[1,2,2,1.9]]",
    "[[1,2,'2',1]]", "[[1,1,2,True]]", "[[1,1,2,None]]",
]


@pytest.mark.parametrize("text", MISSHAPEN_PD_LISTS)
def test_pd_list_shape_is_checked_by_pdcode(text):
    # parse_pd hands what it read to PDCode, so both fail alike
    with pytest.raises(InvalidDiagram) as parsed:
        parse_pd(text)
    with pytest.raises(InvalidDiagram) as built:
        PDCode(ast.literal_eval(text))
    assert type(parsed.value) is type(built.value)
    assert str(parsed.value) == str(built.value)


def test_empty_pd_list_is_the_unknot():
    for text in "[]", "()":
        assert parse_pd(text) == PDCode() and parse_pd(text).n == 0


def test_braid_to_pd():
    t = braid_to_pd([1, 1, 1], 2)
    assert t.n == 3
    assert link_components(t) == 1
    assert braid_to_pd([1], 2).n == 1
    assert braid_to_pd([1, -1], 2).n == 2


def test_braid_errors():
    with pytest.raises(InvalidBraid):
        braid_to_pd([2], 2)
    with pytest.raises(InvalidBraid):
        braid_to_pd([0], 2)
    with pytest.raises(InvalidBraid):
        braid_to_pd([1], 3)  # third strand has no crossings
    with pytest.raises(InvalidBraid):
        braid_to_pd([], 2)


def test_untouched_strands_rejected_in_little_memory():
    # a word that leaves strands untouched fails before any per-strand
    # table is built, so the strand count does not bound memory
    tracemalloc.start()
    try:
        with pytest.raises(InvalidBraid, match="crossingless"):
            braid_to_pd([1], 10 ** 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_signs():
    assert compute_signs(braid_to_pd([1, 1, 1], 2))[:2] == (3, 0)
    assert compute_signs(braid_to_pd([-1, -1, -1], 2))[:2] == (0, 3)
    assert compute_signs(braid_to_pd([1, -1], 2))[:2] == (1, 1)


def test_table_trefoil_is_negative():
    pd = parse_pd("X[1,4,2,5];X[3,6,4,1];X[5,2,6,3]")
    assert compute_signs(pd)[:2] == (0, 3)


def test_mirror_swaps_signs():
    pd = braid_to_pd([1, 1, -2, 1, -2], 3)
    n_plus, n_minus, _ = compute_signs(pd)
    m_plus, m_minus, _ = compute_signs(mirror(pd))
    assert (m_plus, m_minus) == (n_minus, n_plus)


@pytest.mark.parametrize("entry", [2, -1, True, False, 0.0, 1.0, "1", None])
def test_state_entries_are_the_ints_0_and_1(entry):
    # a 2 used to read as a 1-smoothing in smooth_state and as a
    # 0-smoothing in smoothing_graph
    with pytest.raises(InvalidDiagram, match="state entry"):
        State((entry,))
    with pytest.raises(InvalidDiagram, match="state entry"):
        State((0, entry, 1))
    assert State([0, 1]).assignment == (0, 1)


def test_smooth_state_empty():
    assert smooth_state(parse_pd(""), State(())).circle_count == 1


def test_smooth_state_trefoil():
    # hand union-find over the six arcs of X[1,3,4,2];X[3,5,6,4];X[5,1,2,6]:
    # all-0 merges (1,3)(4,2) (3,5)(6,4) (5,1)(2,6) -> {1,3,5}, {2,4,6}
    # all-1 merges (1,2)(3,4) (3,4)(5,6) (5,6)(1,2) -> {1,2}, {3,4}, {5,6}
    t = braid_to_pd([1, 1, 1], 2)
    assert smooth_state(t, State((0, 0, 0))).circle_count == 2
    assert smooth_state(t, State((1, 1, 1))).circle_count == 3


def test_oriented_state_gives_seifert_circles():
    for word, strands in ([1, 1, 1], 2), ([1, -2, 1, -2], 3), ([1, 1, 2, 2], 3):
        pd = braid_to_pd(word, strands)
        st = oriented_state(pd)
        assert smooth_state(pd, st).circle_count == strands


def _all_generators(pd):
    cx = build_complex(pd)
    return [cx.generator(i, k) for i in cx.degrees
            for k in range(len(cx.q_degrees(i)))]


def test_state_height():
    t = braid_to_pd([-1, -1, -1], 2)
    assert sum(oriented_state(t).assignment) == compute_signs(t)[1]
    zero = [g for g in _all_generators(t) if g.state == (0, 0, 0)]
    assert zero and all(g.hom_degree == -3 for g in zero)


def test_heights_of_all_states():
    pd = braid_to_pd([1, -1], 2)
    _, n_minus, _ = compute_signs(pd)
    gens = _all_generators(pd)
    assert {g.state for g in gens} == {(0, 0), (1, 0), (0, 1), (1, 1)}
    for g in gens:
        assert g.hom_degree == sum(g.state) - n_minus


def test_circle_change_is_one_per_edge():
    rng = random.Random(30)
    for _ in range(20):
        word = [rng.choice([1, -1, 2, -2]) for _ in range(4)]
        try:
            pd = braid_to_pd(word, 3)
        except InvalidBraid:
            continue
        for mask in range(2 ** pd.n):
            st = [(mask >> j) & 1 for j in range(pd.n)]
            c0 = smooth_state(pd, State(st)).circle_count
            for j in range(pd.n):
                if st[j] == 0:
                    st2 = list(st)
                    st2[j] = 1
                    c1 = smooth_state(pd, State(st2)).circle_count
                    assert abs(c1 - c0) == 1


def test_smoothings_walk_matches_smooth_state():
    # the one-walk smoothings of the cube build against the union-find of
    # each state on its own, on braids, mirrors, moves and odd labels
    rng = random.Random(31)
    pds = [parse_pd(""), parse_pd("X[10,30,40,20];X[30,50,60,40];X[50,10,20,60]")]
    while len(pds) < 62:
        strands = rng.randint(2, 4)
        word = [rng.choice([1, -1]) * rng.randint(1, strands - 1)
                for _ in range(rng.randint(1, 7))]
        try:
            pd = braid_to_pd(word, strands)
        except InvalidBraid:
            continue
        pds += [pd, mirror(pd),
                reidemeister_move(pd, rng.choice(["R1+", "R1-"]),
                                  rng.choice(sorted(pd.arcs()))),
                reidemeister_move(pd, "R2", rng.choice(r2_sites(pd)))]
    for pd in pds:
        arcs, members = _smoothings(pd)
        assert arcs == tuple(sorted(pd.arcs()))
        assert len(members) == 2 ** pd.n
        for mask, member in enumerate(members):
            st = State([(mask >> j) & 1 for j in range(pd.n)])
            assert dict(zip(arcs, member)) == smooth_state(pd, st).membership


def test_r1_moves():
    t = braid_to_pd([1, 1, 1], 2)
    plus = reidemeister_move(t, "R1+", 1)
    assert plus.n == 4 and compute_signs(plus)[:2] == (4, 0)
    minus = reidemeister_move(t, "R1-", 2)
    assert minus.n == 4 and compute_signs(minus)[:2] == (3, 1)
    assert link_components(plus) == 1


def test_r1_on_empty_diagram():
    k = reidemeister_move(parse_pd(""), "R1+")
    assert k.n == 1 and compute_signs(k)[:2] == (1, 0)
    k = reidemeister_move(parse_pd(""), "R1-")
    assert k.n == 1 and compute_signs(k)[:2] == (0, 1)


def test_r2_moves():
    t = braid_to_pd([1, 1, 1], 2)
    sites = r2_sites(t)
    assert sites
    for site in sites[:4]:
        moved = reidemeister_move(t, "R2", site)
        assert moved.n == 5
        n_plus, n_minus, _ = compute_signs(moved)
        assert (n_plus, n_minus) == (4, 1)
        assert link_components(moved) == 1


def test_invalid_sites():
    t = braid_to_pd([1, 1, 1], 2)
    with pytest.raises(InvalidSite):
        reidemeister_move(t, "R1+", 99)
    with pytest.raises(InvalidSite):
        reidemeister_move(t, "R2", ((0, 0), (0, 0)))
    with pytest.raises(InvalidSite):
        reidemeister_move(t, "bogus", 1)


@pytest.mark.parametrize("site", [[1], {1: 2}])
def test_r1_on_an_unhashable_site_is_an_invalid_site(site):
    t = braid_to_pd([1, 1, 1], 2)
    with pytest.raises(InvalidSite, match=r"^no arc .* in diagram$"):
        reidemeister_move(t, "R1+", site)


@pytest.mark.parametrize("crossings, message", [
    ([[1, 1, 0, 0]], "arc labels must be positive, got 0"),
    ([[2, 2, 2, 2]], "arc 2 appears 4 times, expected 2"),
    ([[1, 2, 1, 2]], "PD code is not planar: 1 crossings in 1 pieces bound "
                     "1 regions, expected 3"),
    ([[1, 1, 2, 4], [4, 2, 3, 3]], "orientation conflict at crossing 0"),
    ([[4, 1, 1, 2], [4, 2, 3, 3]], "arc 4 cannot close up"),
])
def test_validate_pd_messages(crossings, message):
    with pytest.raises(InvalidDiagram) as info:
        PDCode(crossings)
    assert str(info.value) == message


def test_components_stable_under_moves():
    rng = random.Random(31)
    pd = braid_to_pd([1, 1], 2)  # hopf link, 2 components
    for _ in range(6):
        mv = rng.choice(["R1+", "R1-", "R2"])
        if mv == "R2":
            pd = reidemeister_move(pd, "R2", rng.choice(r2_sites(pd)))
        else:
            pd = reidemeister_move(pd, mv, rng.choice(sorted(pd.arcs())))
        assert link_components(pd) == 2


def test_regions_euler():
    for word, strands in ([1, 1, 1], 2), ([1, 1], 2), ([1, -2, 1, -2], 3):
        pd = braid_to_pd(word, strands)
        diagrams = [pd, mirror(pd)]
        diagrams += [reidemeister_move(pd, "R2", site) for site in r2_sites(pd)]
        for moved in diagrams:
            assert moved.n - 2 * moved.n + len(regions(moved)) == 2


def test_non_planar_codes_rejected():
    # each passes the arc-count and orientation checks, but its regions
    # give V - E + F = 0: the projection lies on a torus
    for text in ("X[4,2,2,4];X[1,3,1,3]", "X[1,4,2,3];X[3,6,4,5];X[5,2,6,1]"):
        with pytest.raises(InvalidDiagram, match="not planar"):
            parse_pd(text)


def test_accepted_codes_split_or_merge_on_every_edge():
    # random shuffled codes: whatever PDCode accepts is planar, so
    # every cube edge changes the circle count by one
    rng = random.Random(71)
    accepted = 0
    for _ in range(3000):
        n = rng.randint(1, 3)
        arcs = [a for a in range(1, 2 * n + 1) for _ in (0, 1)]
        rng.shuffle(arcs)
        try:
            pd = PDCode(tuple(tuple(arcs[4 * k:4 * k + 4]) for k in range(n)))
        except InvalidDiagram:
            continue
        accepted += 1
        counts = [
            smooth_state(pd, State([(m >> j) & 1 for j in range(n)])).circle_count
            for m in range(2 ** n)
        ]
        for m in range(2 ** n):
            for j in range(n):
                if not m >> j & 1:
                    assert abs(counts[m | 1 << j] - counts[m]) == 1, pd
    assert accepted > 500


def test_kept_trace_matches_a_fresh_trace():
    # a code keeps the orientation trace and the port array it was checked
    # with; after every move and mirror they must equal a fresh trace of
    # the same crossings, and must not take part in equality, hashing or
    # printing
    for word, strands in ([1, 1, 1], 2), ([1, 1], 2), ([1, -2, 1, -2], 3):
        pd = braid_to_pd(word, strands)
        moved = [reidemeister_move(pd, mv, arc)
                 for mv in ("R1+", "R1-") for arc in sorted(pd.arcs())]
        moved += [reidemeister_move(pd, "R2", site) for site in r2_sites(pd)]
        for d in [pd] + moved + [mirror(m) for m in [pd] + moved]:
            again = PDCode(d.crossings)
            fresh = _trace(again)
            assert d.far == again.far and d.over_from_3 == tuple(fresh)
            assert compute_signs(d) == compute_signs(again)
            assert compute_signs(d)[2] == [1 if o else -1 for o in fresh]
            assert oriented_state(d) == oriented_state(again)
            assert d == again and hash(d) == hash(again)
            assert str(d) == str(again) and repr(d) == repr(again)
            assert repr(d) == "PDCode(crossings=%r)" % (d.crossings,)


@pytest.mark.parametrize("crossings, arc, count", [
    (((1, 2, 3, 4),), 1, 1),               # every arc once
    (((1, 2, 2, 3), (3, 4, 4, 5)), 1, 1),  # arcs 1 and 5 once
    (((1, 1, 1, 2), (2, 3, 3, 4)), 1, 3),  # arc 1 three times
    (((1, 1, 1, 2), (2, 2, 3, 3)), 1, 3),  # arcs 1 and 2 three times, none once
])
def test_unvalidated_code_with_a_loose_arc_is_an_invalid_diagram(
        crossings, arc, count):
    # building the code checks it, and names the arc rather than failing
    # on indexing
    message = "arc %d appears %d times, expected 2" % (arc, count)
    with pytest.raises(InvalidDiagram, match=message):
        PDCode(crossings)


def _random_braids(rng, count):
    """``count`` random (word, strands, diagram) triples on 2-4 strands."""
    out = []
    while len(out) < count:
        strands = rng.randint(2, 4)
        word = [rng.choice([1, -1]) * rng.randint(1, strands - 1)
                for _ in range(rng.randint(1, 8))]
        try:
            out.append((word, strands, braid_to_pd(word, strands)))
        except InvalidBraid:
            continue
    return out


def test_components_are_cycles_of_the_braid_permutation():
    rng = random.Random(41)
    for word, strands, pd in _random_braids(rng, 60):
        perm = list(range(strands))
        for w in word:
            k = abs(w) - 1
            perm[k], perm[k + 1] = perm[k + 1], perm[k]
        cycles = 0
        seen = set()
        for start in range(strands):
            if start not in seen:
                cycles += 1
                while start not in seen:
                    seen.add(start)
                    start = perm[start]
        moved = [mirror(pd),
                 reidemeister_move(pd, rng.choice(["R1+", "R1-"]),
                                   rng.choice(sorted(pd.arcs()))),
                 reidemeister_move(pd, "R2", rng.choice(r2_sites(pd)))]
        for d in [pd] + moved:
            assert link_components(d) == cycles, (word, strands)


def test_regions_walk_every_port_once():
    rng = random.Random(43)
    diagrams = [parse_pd("")]
    for _, _, pd in _random_braids(rng, 40):
        diagrams += [pd, mirror(pd),
                     reidemeister_move(pd, "R2", rng.choice(r2_sites(pd)))]
    for pd in diagrams:
        walks = regions(pd)
        ports = sorted(p for walk in walks for p in walk)
        assert ports == [(ci, si) for ci in range(pd.n) for si in range(4)]
        for walk in walks:
            for (ci, si), nxt in zip(walk, walk[1:] + walk[:1]):
                arc = pd.crossings[ci][si]
                ends = [(cj, sj) for cj, c in enumerate(pd.crossings)
                        for sj, a in enumerate(c) if a == arc]
                cj, sj = ends[1] if ends[0] == (ci, si) else ends[0]
                assert nxt == (cj, (sj + 1) % 4)


@pytest.mark.parametrize("crossings, message", [
    (((1, 2, 3, 4),), "arc 1 appears 1 times, expected 2"),
    (((1, 1, 2, 2), (2, 3, 3, 4)), "arc 2 appears 3 times, expected 2"),
    (((1, 1, 0, 0),), "arc labels must be positive, got 0"),
])
def test_unvalidated_code_with_a_bad_arc_is_invalid(crossings, message):
    # no such code reaches the region walk: building it raises
    with pytest.raises(InvalidDiagram, match=message):
        PDCode(crossings)


def test_closures_and_corrupted_codes_match_the_oracle():
    # tests/pd_oracle.py numbers a closure in three passes and checks a
    # code with a union-find and a queue of (port, head) tuples; seeded
    # closures, their mirrors and seeded corruptions of both must give
    # the same crossings, far and trace, or the same first message
    checked = pd_oracle.compare(1, 3000, 30000)
    assert checked["codes"] > 4000 and checked["invalid"] > 20000
    for kind in ("must be positive", "times, expected 2", "is not planar",
                 "orientation conflict", "cannot close up"):
        assert any(kind in m for m in checked["messages"]), kind


@pytest.mark.parametrize("crossings, message", [
    (((1, 1, 2, 2, 3), (3, 4, 4, 5, 5)), "crossing 0 has 5 labels, expected 4"),
    (((),), "crossing 0 has 0 labels, expected 4"),
    ((("a", "a", "b", "b"),), "arc labels must be integers, got 'a'"),
    (((1.5, 1.5, 2, 2),), "arc labels must be integers, got 1.5"),
    (((True, True, 2, 2),), "arc labels must be integers, got True"),
    # checked before any arc: a later bad crossing wins over arc 0
    (((0, 0, 1, 1), (2, 2, 3, 3, 4)), "crossing 1 has 5 labels, expected 4"),
    (((0, 0, 1, 1), (2, 2, 3.0, 3)), "arc labels must be integers, got 3.0"),
    # a code or crossing with no slot order, or none at all
    (5, "PD code must be a tuple or list of crossings, not int"),
    ({(1, 1, 2, 2)}, "PD code must be a tuple or list of crossings, not set"),
    ((5,), "crossing 0 must be a tuple or list, not int"),
    (({1, 2, 3, 4},), "crossing 0 must be a tuple or list, not set"),
    (({1: 1, 2: 2, 3: 3, 4: 4},), "crossing 0 must be a tuple or list, not dict"),
    (("1122",), "crossing 0 must be a tuple or list, not str"),
    ([[1, 1, 2, 2], (2, 3, 3, 4), None], "crossing 2 must be a tuple or list, not NoneType"),
    # crossing by crossing: an earlier bad crossing wins, a later one
    # wins over arc 0
    (((1, 1, 2), {2, 3, 3, 4}), "crossing 0 has 3 labels, expected 4"),
    (((1, 1.0, 2, 2), 5), "arc labels must be integers, got 1.0"),
    (((0, 0, 1, 1), {2, 3, 4, 5}), "crossing 1 must be a tuple or list, not set"),
])
def test_a_crossing_of_other_than_four_int_labels_is_invalid(crossings, message):
    with pytest.raises(InvalidDiagram) as info:
        PDCode(crossings)
    assert str(info.value) == message


@pytest.mark.parametrize("word, strands, message", [
    ([1.0, 1, 1], 2, "generator 1.0 is not an integer"),
    ([True] * 3, 2, "generator True is not an integer"),
    (["1"], 2, "generator '1' is not an integer"),
    ([1, 1, 1], 2.0, "strand count 2.0 is not an integer"),
])
def test_a_braid_of_other_than_int_generators_and_strands_is_invalid(
        word, strands, message):
    with pytest.raises(InvalidBraid) as info:
        braid_to_pd(word, strands)
    assert str(info.value) == message
