import random

import graph_oracle
import pytest

from knotfoam import graphs
from knotfoam.diagram import State, braid_to_pd, compute_signs, smooth_state
from knotfoam.errors import (InvalidBraid, InvalidDiagram, InvalidFace, MalformedFoam,
                             ReductionStuck)
from knotfoam.graphs import (
    BLUE,
    RED,
    Face,
    TrivalentGraph,
    _classify_face,
    _port_names,
    blue_loop_count,
    cup_basis,
    find_bigon_or_square,
    graded_dimension,
    graph_evaluation,
    graph_from_json,
    graph_to_json,
    random_planar_graph,
    reduce_step,
    smoothing_graph,
)
from knotfoam.polyring import LaurentQ

CIRCLE = LaurentQ.circle()


def circles_only(n):
    return TrivalentGraph({}, {}, {}, circles=n)


def theta_graph():
    # one blue circle with a red chord: two vertices, three edges
    rotations = {
        "v1": ("ri1", "l1", "r1"),
        "v2": ("ri2", "r2", "l2"),
    }
    pairing = {"l1": "l2", "l2": "l1", "ri1": "ri2", "ri2": "ri1",
               "r1": "r2", "r2": "r1"}
    colors = {"l1": BLUE, "l2": BLUE, "ri1": BLUE, "ri2": BLUE,
              "r1": RED, "r2": RED}
    return TrivalentGraph(rotations, pairing, colors)


def nonplanar_theta_graph():
    # reversing one rotation of the theta graph forces a genus-one
    # embedding with a single hexagonal face, so no reduction applies
    rotations = {"v1": ("ri1", "l1", "r1"), "v2": ("ri2", "l2", "r2")}
    pairing = {"l1": "l2", "l2": "l1", "ri1": "ri2", "ri2": "ri1",
               "r1": "r2", "r2": "r1"}
    colors = {"l1": BLUE, "l2": BLUE, "ri1": BLUE, "ri2": BLUE,
              "r1": RED, "r2": RED}
    return TrivalentGraph(rotations, pairing, colors)


def _renamed(g, names):
    def rename(x):
        return names.get(x, x)

    rotations = {rename(v): tuple(map(rename, hs)) for v, hs in g.rotations.items()}
    pairing = {rename(h): rename(h2) for h, h2 in g.pairing.items()}
    colors = {rename(h): c for h, c in g.colors.items()}
    return rotations, pairing, colors


def test_constructor_rejects_a_half_edge_that_is_not_a_string():
    # half-edges are sorted together, and 1 does not compare with "l2"
    with pytest.raises(MalformedFoam, match="^vertex or half-edge 1 is not a string$"):
        TrivalentGraph(*_renamed(theta_graph(), {"l1": 1}))


@pytest.mark.parametrize("names, extra, message", [
    ({"v2": 7}, {}, "vertex or half-edge 7 is not a string"),
    ({"r2": b"r2"}, {}, "vertex or half-edge b'r2' is not a string"),
    ({"ri1": None, "l2": 1.5}, {}, "vertex or half-edge 1.5 is not a string"),
    # vertex names come first, then paired half-edges, then rotations
    ({"l1": 1, "v2": (2,)}, {}, r"vertex or half-edge \(2,\) is not a string"),
    ({"l2": 1, "l1": 2}, {}, "vertex or half-edge 2 is not a string"),
    # a paired half-edge on no vertex is named before the shape is checked
    ({}, {3: "x", "x": 3}, "vertex or half-edge 3 is not a string"),
])
def test_constructor_names_the_first_name_that_is_not_a_string(names, extra, message):
    rotations, pairing, colors = _renamed(theta_graph(), names)
    with pytest.raises(MalformedFoam, match="^%s$" % message):
        TrivalentGraph(rotations, {**pairing, **extra}, colors)


def test_constructor_rejects_a_fractional_circle_count():
    with pytest.raises(MalformedFoam, match="^circles must be an integer, not 1.5$"):
        circles_only(1.5)


def test_constructor_rejects_a_circle_count_string():
    with pytest.raises(MalformedFoam, match="^circles must be an integer, not '2'$"):
        circles_only("2")


def braid_states(rng, count, letters=(10, 12)):
    """Smoothing graphs of braids of 10-12 (or ``letters``) crossings on
    3-5 strands.

    The states are uniform, so red rungs land on adjacent strand pairs
    too and some graphs have no bigon or square.
    """
    out = []
    while len(out) < count:
        strands = rng.randint(3, 5)
        word = [rng.choice((1, -1)) * rng.randint(1, strands - 1)
                for _ in range(rng.randint(*letters))]
        try:
            pd = braid_to_pd(word, strands)
        except InvalidBraid:
            continue
        out.append((pd, State(tuple(rng.randint(0, 1) for _ in range(pd.n)))))
    return out


def test_blue_loop_count():
    assert blue_loop_count(circles_only(1)) == 1
    assert blue_loop_count(circles_only(3)) == 3
    assert blue_loop_count(theta_graph()) == 1


def test_graph_evaluation():
    assert graph_evaluation(circles_only(1)) == CIRCLE
    assert graph_evaluation(circles_only(2)) == CIRCLE * CIRCLE
    assert graph_evaluation(circles_only(0)) == LaurentQ.one()


def test_find_face():
    assert find_bigon_or_square(circles_only(2)) is None
    face = find_bigon_or_square(theta_graph())
    assert face is not None
    assert face.kind in ("central-bigon", "side-bigon")


def test_theta_faces():
    g = theta_graph()
    faces = g.faces()
    assert len(faces) == 3  # v - e + f = 2 - 3 + 3 = 2
    kinds = sorted(len(f) for f in faces)
    assert kinds == [2, 2, 2]


def test_reduce_central_bigon_factor():
    g = theta_graph()
    central = None
    for darts in g.faces():
        if all(g.colors[h] == BLUE for h in darts) and len(darts) == 2:
            central = Face(darts, "central-bigon")
    assert central is not None
    g2, factor = reduce_step(g, central)
    assert factor == CIRCLE
    # the red chord closes into a circle and is absorbed
    assert g2.red_edge_count() == 0
    assert blue_loop_count(g2) == 0
    assert graded_dimension(g) == CIRCLE


def test_reduce_side_bigon_factor():
    g = theta_graph()
    side = None
    for darts in g.faces():
        colors = {g.colors[h] for h in darts}
        if len(darts) == 2 and colors == {BLUE, RED}:
            side = Face(darts, "side-bigon")
    assert side is not None
    g2, factor = reduce_step(g, side)
    assert factor == LaurentQ.one()
    assert blue_loop_count(g2) == 1


def test_invalid_face():
    g = theta_graph()
    with pytest.raises(InvalidFace):
        reduce_step(g, Face(("nope", "l1"), "central-bigon"))


def test_reduction_stuck_on_nonplanar_embedding():
    # no face is a bigon or a square, so graded_dimension erases the red
    # edge, which keeps the one blue loop
    g = nonplanar_theta_graph()
    assert [len(f) for f in g.faces()] == [6]
    assert g.red_edge_count() == 1
    assert find_bigon_or_square(g) is None
    assert graded_dimension(g) == graph_evaluation(g) == CIRCLE


def test_a_graph_without_a_bigon_or_square_reduces():
    # (s1 s2^-1)^3 at state (1,0,1,0,1,0): six red rungs on adjacent
    # strand pairs
    g = smoothing_graph(braid_to_pd([1, -2] * 3, 3), State((1, 0, 1, 0, 1, 0)))
    assert g.red_edge_count() == 6
    assert find_bigon_or_square(g) is None
    assert graded_dimension(g) == graph_evaluation(g)


def test_long_braid_graphs_reduce_erasing_where_no_face_is_left():
    # unrestricted smoothing graphs of 11-14-letter braids; the public
    # one-step loop stops where no bigon or square is left, and there
    # graded_dimension erases a red edge
    rng = random.Random(28)
    erased = 0
    for pd, state in braid_states(rng, 600, letters=(11, 14)):
        g = smoothing_graph(pd, state)
        assert graded_dimension(g) == graph_evaluation(g), (pd, state)
        erased += isinstance(_outcome(_public_loop, g), str)
    assert erased > 0


def dumbbell_graph():
    # two blue loops, each on one vertex, joined by a red edge; the loop
    # at v1 bounds the 1-cycle (a), the least dart, and the rest of the
    # plane is one square
    rotations = {"v1": ("b", "a", "r1"), "v2": ("d", "c", "r2")}
    pairing = {"a": "b", "b": "a", "c": "d", "d": "c", "r1": "r2", "r2": "r1"}
    colors = {"a": BLUE, "b": BLUE, "c": BLUE, "d": BLUE, "r1": RED, "r2": RED}
    return TrivalentGraph(rotations, pairing, colors)


def tetrahedron_graph():
    # four triangles; the red edges 0-1 and 2-3 are a perfect matching and
    # the blue ones the loop 0-2-1-3.  Half-edge eij is at i, toward j
    rotations = {"v0": ("e01", "e02", "e03"), "v1": ("e12", "e10", "e13"),
                 "v2": ("e23", "e20", "e21"), "v3": ("e31", "e30", "e32")}
    pairing, colors = {}, {}
    for hs in rotations.values():
        for h in hs:
            pairing[h] = "e" + h[2] + h[1]
            colors[h] = RED if {h[1], h[2]} in ({"0", "1"}, {"2", "3"}) else BLUE
    return TrivalentGraph(rotations, pairing, colors)


def test_face_search_matches_the_oracle_at_every_step():
    # tests/graph_oracle.py takes the first bigon, else square, from all
    # the orbits of faces(), recomputed at each step; graded_dimension's
    # search from a turn map made once must pick the same face every time
    extra = (theta_graph(), nonplanar_theta_graph(), dumbbell_graph(),
             tetrahedron_graph())
    checked = graph_oracle.compare(1, 1200, 800, extra)
    assert checked["graphs"] == 2004 and checked["steps"] > 6000
    for kind in "central-bigon", "side-bigon", "square", "erase":
        assert checked[kind] > 50, checked


def test_face_search_skips_a_red_red_two_cycle():
    # with one red dart per vertex every 2-cycle of a valid graph is
    # reducible; recolored, the theta's least face (l1, ri2) is red on
    # both darts, which no move removes
    g = theta_graph()._copy()
    g.colors.update(l1=RED, l2=RED, ri1=RED, ri2=RED, r1=BLUE, r2=BLUE)
    assert g.faces()[0] == ("l1", "ri2")
    face = find_bigon_or_square(g)
    assert face == Face(("l2", "r1"), "side-bigon") == graph_oracle.least_face(g)
    for kind in "central-bigon", "side-bigon":
        with pytest.raises(InvalidFace, match="does not match"):
            reduce_step(g, Face(("ri2", "l1"), kind))


def test_face_search_returns_a_square_behind_a_bigon_it_cannot_reduce():
    # every 2-cycle recolored red on both darts: the least square wins
    # even where a bigon has a smaller least dart
    rng = random.Random(29)
    seen = 0
    for _ in range(1000):
        g = random_planar_graph(rng)
        faces = g.faces()
        squares = [f for f in faces if _classify_face(g, f) == "square"]
        bigons = [f for f in faces if len(f) == 2]
        if not squares or not bigons or bigons[0] > squares[0]:
            continue
        g = g._copy()
        for h in (h for f in bigons for h in f):
            g.colors[h] = RED
        face = find_bigon_or_square(g)
        assert face == Face(squares[0], "square") == graph_oracle.least_face(g)
        seen += 1
    assert seen > 20


def test_face_search_returns_no_one_or_three_cycle():
    g = dumbbell_graph()
    assert g.faces() == [("a",), ("b", "r1", "d", "r2"), ("c",)]
    assert find_bigon_or_square(g) == Face(("b", "r1", "d", "r2"), "square")
    assert graded_dimension(g) == graph_evaluation(g) == CIRCLE * CIRCLE
    t = tetrahedron_graph()
    assert sorted(map(len, t.faces())) == [3, 3, 3, 3]
    assert find_bigon_or_square(t) is None
    assert graded_dimension(t) == graph_evaluation(t) == CIRCLE
    # reduce_step takes neither as a face of any kind
    for graph, darts in (g, ("a",)), (g, ("c",)), (t, t.faces()[0]), (t, t.faces()[3]):
        for kind in "central-bigon", "side-bigon", "square":
            with pytest.raises(InvalidFace, match="does not match"):
                reduce_step(graph, Face(darts, kind))


def test_shared_port_names_give_the_same_json(monkeypatch):
    # smoothing_graph takes its half-edge names from one table per size;
    # names formatted on each call must give the same JSON
    rng = random.Random(30)
    cases = braid_states(rng, 200) + [(braid_to_pd([1, -2, 3] * 14, 4), State((1,) * 42))]
    assert _port_names(168)[:168] == tuple("h%d_%d" % divmod(p, 4) for p in range(168))
    first = smoothing_graph(*cases[-1])
    again = smoothing_graph(*cases[-1])
    halves = [sorted(h for h in g.pairing if h[0] == "h") for g in (first, again)]
    assert halves[0] and all(a is b for a, b in zip(*halves))
    shared = [graph_to_json(smoothing_graph(pd, s)) for pd, s in cases]
    monkeypatch.setattr(graphs, "_port_names",
                        lambda ports: ["h%d_%d" % divmod(p, 4) for p in range(ports)])
    assert [graph_to_json(smoothing_graph(pd, s)) for pd, s in cases] == shared


def test_smoothing_graph_of_unknot():
    pd = braid_to_pd([1], 2)
    g1 = smoothing_graph(pd, State((1,)))  # disoriented: red edge
    assert g1.red_edge_count() == 1
    assert blue_loop_count(g1) == 1
    g0 = smoothing_graph(pd, State((0,)))
    assert g0.red_edge_count() == 0
    assert g0.circles == 2


@pytest.mark.parametrize("state", [(0,), (0, 1), (0, 1, 0, 1)])
def test_smoothing_graph_rejects_a_state_of_the_wrong_length(state):
    # as smooth_state does; a short state used to fail on indexing
    trefoil = braid_to_pd([1, 1, 1], 2)
    message = "^state length does not match crossing count$"
    for fn in smoothing_graph, smooth_state:
        with pytest.raises(InvalidDiagram, match=message):
            fn(trefoil, State(state))


def test_graded_dimension_theorem_random():
    rng = random.Random(20)
    for _ in range(80):
        g = random_planar_graph(rng)
        assert graded_dimension(g) == graph_evaluation(g)


def test_square_reduction_preserves_dimension():
    from knotfoam.graphs import _classify_face

    rng = random.Random(21)
    seen = 0
    trials = 0
    while seen < 5 and trials < 500:
        trials += 1
        g = random_planar_graph(rng)
        for darts in g.faces():
            if _classify_face(g, darts) == "square":
                g2, factor = reduce_step(g, Face(darts, "square"))
                assert factor == LaurentQ.one()
                assert graded_dimension(g2) == graded_dimension(g)
                assert g2.red_edge_count() == g.red_edge_count() - 2
                seen += 1
                break
    assert seen >= 5


def test_reduce_step_rejects_every_descriptor_that_is_no_face():
    # true faces, rotated or reversed, and random live darts, each with a
    # random kind: a descriptor either reduces or raises InvalidFace
    rng = random.Random(24)
    kinds = ("central-bigon", "side-bigon", "square")
    outcomes = {"reduced": 0, "invalid": 0}
    while sum(outcomes.values()) < 2400:
        g = random_planar_graph(rng)
        darts = sorted(g.pairing)
        faces = [f for f in g.faces() if len(f) in (2, 4)]
        if not darts:
            continue
        if faces and rng.random() < 0.5:
            face = list(rng.choice(faces))
            k = rng.randrange(len(face))
            face = face[k:] + face[:k]
            if rng.random() < 0.3:
                face.reverse()
        else:
            face = rng.sample(darts, min(len(darts), rng.choice((2, 4))))
        try:
            reduce_step(g, Face(tuple(face), rng.choice(kinds)))
        except InvalidFace:
            outcomes["invalid"] += 1
        else:
            outcomes["reduced"] += 1
    assert min(outcomes.values()) >= 300, outcomes


def test_faces_satisfy_euler_formula():
    rng = random.Random(22)
    for _ in range(60):
        g = random_planar_graph(rng)
        parent = {v: v for v in g.rotations}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for h1, h2 in g.edges():
            a, b = find(g.vertex_of(h1)), find(g.vertex_of(h2))
            if a != b:
                parent[a] = b
        ncomp = len({find(v) for v in g.rotations})
        v, e, f = len(g.rotations), len(g.edges()), len(g.faces())
        assert v - e + f == 2 * ncomp


def test_cup_basis():
    assert cup_basis(circles_only(1)) == [((0,), 1), ((1,), -1)]
    degrees = sorted(d for _dots, d in cup_basis(circles_only(2)))
    assert degrees == [-2, 0, 0, 2]
    assert cup_basis(circles_only(0)) == [((), 0)]


def test_cup_basis_matches_graded_dimension():
    rng = random.Random(23)
    for _ in range(25):
        g = random_planar_graph(rng)
        total = LaurentQ.zero()
        for _dots, degree in cup_basis(g):
            total = total + LaurentQ.q(degree)
        assert total == graded_dimension(g)


def test_json_round_trip():
    g = theta_graph()
    g2 = graph_from_json(graph_to_json(g))
    assert graded_dimension(g2) == graded_dimension(g)
    assert blue_loop_count(g2) == 1


def test_red_edge_count_matches_edge_list():
    def red_edges(g):
        return len([h for h, _ in g.edges() if g.colors[h] == RED])

    rng = random.Random(24)
    graphs = [theta_graph(), circles_only(2)]
    graphs += [random_planar_graph(rng) for _ in range(40)]
    graphs += [smoothing_graph(braid_to_pd(word, strands), State(state))
               for word, strands, state in (
                   ([1], 2, (1,)),
                   ([1, 1, 1], 2, (1, 0, 1)),
                   ([1, -2, 1, -2], 3, (1, 1, 0, 0)),
                   ([1, -2] * 3, 3, (1, 0, 1, 0, 1, 0)))]
    for g in graphs:
        assert g.red_edge_count() == red_edges(g)
        # and along every reduction step
        while (face := find_bigon_or_square(g)) is not None:
            g, _ = reduce_step(g, face)
            assert g.red_edge_count() == red_edges(g)


@pytest.mark.parametrize("rotations", [
    {"v1": ("a", "a", "r1"), "v2": ("b", "b", "r2")},  # twice at one vertex
    {"v1": ("a", "b", "r1"), "v2": ("b", "a", "r2")},  # at two vertices
])
def test_half_edge_in_two_rotation_slots_is_malformed(rotations):
    pairing = {"a": "b", "b": "a", "r1": "r2", "r2": "r1"}
    colors = {"a": BLUE, "b": BLUE, "r1": RED, "r2": RED}
    with pytest.raises(MalformedFoam, match="more than one rotation slot"):
        TrivalentGraph(rotations, pairing, colors)


def test_paired_half_edge_on_no_vertex_is_malformed():
    with pytest.raises(MalformedFoam, match="^half-edge 'x' belongs to no vertex$"):
        TrivalentGraph({}, {"x": "y", "y": "x"}, {})
    # a vertex half-edge paired with one on no vertex, colored or not
    g = theta_graph()
    h, partner = next(iter(g.pairing.items()))
    pairing = {k: v for k, v in g.pairing.items() if k not in (h, partner)}
    pairing.update({h: "z", "z": h})
    for colors in g.colors, {**g.colors, "z": g.colors[h]}:
        with pytest.raises(MalformedFoam):
            TrivalentGraph(g.rotations, pairing, colors)


def _public_loop(g):
    """graded_dimension spelled out with the public one-step calls."""
    acc = LaurentQ.one()
    while g.red_edge_count():
        face = find_bigon_or_square(g)
        if face is None:
            raise ReductionStuck("red edges remain but no bigon or square found")
        g, factor = reduce_step(g, face)
        acc = acc * factor
    if g.rotations:
        raise ReductionStuck("vertices remain after all red edges were removed")
    return acc * CIRCLE ** g.circles


def _outcome(f, g):
    try:
        return f(g)
    except ReductionStuck as exc:
        return "stuck: %s" % exc


def test_graded_dimension_is_the_public_loop():
    rng = random.Random(25)
    graphs = [theta_graph(), nonplanar_theta_graph(), circles_only(2)]
    graphs += [random_planar_graph(rng) for _ in range(1200)]
    graphs += [smoothing_graph(pd, s) for pd, s in braid_states(rng, 800)]
    stuck = 0
    for g in graphs:
        ours, loop = graded_dimension(g), _outcome(_public_loop, g)
        if isinstance(loop, str):  # no bigon or square left: an erase
            stuck += 1
            loop = graph_evaluation(g)
        assert ours == loop
    assert 1 < stuck < len(graphs) // 10


def test_reduction_leaves_its_argument_unchanged():
    def snapshot(g):
        return (dict(g.rotations), dict(g.pairing), dict(g.colors), g.circles,
                g.red_edge_count(), g.faces())

    rng = random.Random(26)
    graphs = [theta_graph(), nonplanar_theta_graph()]
    graphs += [random_planar_graph(rng) for _ in range(100)]
    graphs += [smoothing_graph(pd, s) for pd, s in braid_states(rng, 300)]
    for g in graphs:
        before = snapshot(g)
        _outcome(graded_dimension, g)
        graph_evaluation(g)
        assert snapshot(g) == before


def test_smoothing_graph_against_the_smoothing_and_the_signs():
    rng = random.Random(27)
    for pd, state in braid_states(rng, 300):
        g = smoothing_graph(pd, state)
        _, _, signs = compute_signs(pd)
        against = sum(1 for sign, s in zip(signs, state.assignment)
                      if s == (1 if sign > 0 else 0))
        assert blue_loop_count(g) == smooth_state(pd, state).circle_count
        assert g.red_edge_count() == against
        assert len(g.rotations) == 2 * against
