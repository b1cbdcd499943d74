"""Planar trivalent graphs: blue loops joined by red edges.

A graph is stored as a combinatorial map: every vertex carries exactly
three half-edges (two blue, one red) in counterclockwise rotation
order, and a fixed-point-free involution pairs half-edges into edges.
Isolated blue circles carry no half-edges and are just counted.  Faces
are the orbits of (rotate after crossing an edge); for a genuinely
planar graph they satisfy v - e + f = 2 per connected component plus
one.

Removing a face that is a bigon or an alternating square (with a
factor q + q^-1 for the bigon made of two blue edges) preserves the
graded dimension, so a reduction that removes every red edge computes
deg S(G) = (q + q^-1)^(number of blue loops).  A side bigon and a
square are removed by one move with factor 1: erase the face's red
edges and smooth every vertex on it.  Not every graph with a red edge
has such a face: the smoothing graph of the closure of (s1 s2^-1)^3 at
state (1,0,1,0,1,0) has none, and graded_dimension raises
ReductionStuck there.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .diagram import State, _arc_occurrences, compute_signs
from .errors import InvalidBraid, InvalidFace, MalformedFoam, ReductionStuck
from .polyring import LaurentQ

BLUE = "blue"
RED = "red"


class TrivalentGraph:
    def __init__(self, rotations, pairing, colors, circles=0):
        self.rotations = {v: tuple(h) for v, h in rotations.items()}
        self.pairing = dict(pairing)
        self.colors = dict(colors)
        self.circles = circles
        self._vertex_of = {}
        for v, hs in self.rotations.items():
            for h in hs:
                self._vertex_of[h] = v
        self.validate()

    def validate(self):
        for v, hs in self.rotations.items():
            if len(hs) != 3:
                raise MalformedFoam("vertex %r is not trivalent" % v)
            reds = [h for h in hs if self.colors.get(h) == RED]
            blues = [h for h in hs if self.colors.get(h) == BLUE]
            if len(reds) != 1 or len(blues) != 2:
                raise MalformedFoam(
                    "vertex %r needs one red and two blue half-edges" % v
                )
        for h, h2 in self.pairing.items():
            if h2 == h or self.pairing.get(h2) != h:
                raise MalformedFoam("half-edge pairing is not an involution")
            if self.colors[h] != self.colors[h2]:
                raise MalformedFoam("edge %r-%r changes color" % (h, h2))
            if h not in self._vertex_of:
                raise MalformedFoam("half-edge %r belongs to no vertex" % h)
        for h in self._vertex_of:
            if h not in self.pairing:
                raise MalformedFoam("half-edge %r is unpaired" % h)
        if self.circles < 0:
            raise MalformedFoam("negative circle count")

    # -- basic structure -----------------------------------------------

    def vertex_of(self, h):
        return self._vertex_of[h]

    def edges(self):
        seen = set()
        out = []
        for h, h2 in self.pairing.items():
            if h in seen:
                continue
            seen.add(h)
            seen.add(h2)
            out.append((min(h, h2), max(h, h2)))
        return sorted(out)

    def red_edge_count(self):
        # both halves of an edge share its color
        return sum(1 for h in self.pairing if self.colors[h] == RED) // 2

    def _other_blue(self, v, h):
        blues = [x for x in self.rotations[v] if self.colors[x] == BLUE]
        return blues[0] if blues[1] == h else blues[1]

    def blue_loops(self):
        """Cycles of blue edges, each as a sorted tuple of half-edges."""
        seen = set()
        loops = []
        for start in sorted(self._vertex_of):
            if start in seen or self.colors[start] != BLUE:
                continue
            walk = []
            h = start
            while h not in seen:
                seen.add(h)
                walk.append(h)
                partner = self.pairing[h]
                seen.add(partner)
                walk.append(partner)
                h = self._other_blue(self.vertex_of(partner), partner)
            loops.append(tuple(sorted(walk)))
        return loops

    def sigma(self, h):
        hs = self.rotations[self.vertex_of(h)]
        return hs[(hs.index(h) + 1) % 3]

    def faces(self):
        """Orbits of the face permutation, each starting at its least dart."""
        seen = set()
        out = []
        for start in sorted(self._vertex_of):
            if start in seen:
                continue
            walk = []
            h = start
            while h not in seen:
                seen.add(h)
                walk.append(h)
                h = self.sigma(self.pairing[h])
            out.append(tuple(walk))
        return out


def blue_loop_count(g):
    return len(g.blue_loops()) + g.circles


def graph_evaluation(g):
    """(q + q^-1) to the number of blue loops."""
    return LaurentQ.circle() ** blue_loop_count(g)


@dataclass(frozen=True)
class Face:
    darts: tuple
    kind: str  # "central-bigon", "side-bigon", "square"


def _classify_face(g, darts):
    colors = [g.colors[h] for h in darts]
    if len(darts) == 2:
        if colors == [BLUE, BLUE]:
            return "central-bigon"
        if RED in colors and BLUE in colors:
            return "side-bigon"
        return None
    if len(darts) == 4:
        reds = colors.count(RED)
        if reds == 2 and colors[0] != colors[1] and colors[1] != colors[2] \
                and colors[2] != colors[3]:
            return "square"
    return None


def find_bigon_or_square(g):
    """A reducible face, or None when the graph has no red edges."""
    if g.red_edge_count() == 0:
        return None
    candidates = []
    for darts in g.faces():
        kind = _classify_face(g, darts)
        if kind:
            candidates.append(Face(darts, kind))
    if not candidates:
        return None
    order = {"central-bigon": 0, "side-bigon": 0, "square": 1}
    candidates.sort(key=lambda f: (order[f.kind], f.darts))
    return candidates[0]


def reduce_step(g, face):
    """Remove one bigon or square; returns (graph, graded factor)."""
    for h in face.darts:
        if h not in g.pairing:
            raise InvalidFace("dart %r is not in the graph" % h)
    if _classify_face(g, face.darts) != face.kind:
        raise InvalidFace("face descriptor does not match the graph")

    rotations = {v: list(hs) for v, hs in g.rotations.items()}
    pairing = dict(g.pairing)
    colors = dict(g.colors)
    circles = g.circles

    def kill_halves(halves):
        for h in halves:
            pairing.pop(h, None)
            colors.pop(h, None)

    def splice(p1, p2):
        nonlocal circles
        # join the outside partners of two dead half-edges
        a = pairing[p1]
        b = pairing[p2]
        kill_halves([p1, p2])
        if a == p2:  # the two stubs were each other's partners: a circle
            circles += 1
            return
        pairing[a] = b
        pairing[b] = a

    def remove_vertex(v):
        rotations.pop(v)

    def smooth_vertex(v):
        nonlocal circles
        left = [h for h in rotations[v] if h in pairing]
        if len(left) != 2:
            raise InvalidFace("vertex %r cannot be smoothed" % v)
        x, y = left
        if pairing[x] == y:
            circles += 1
            kill_halves([x, y])
        else:
            splice(x, y)
        remove_vertex(v)

    if face.kind == "central-bigon":
        h1, h2 = face.darts
        v1, v2 = g.vertex_of(h1), g.vertex_of(h2)
        r1 = next(h for h in g.rotations[v1] if g.colors[h] == RED)
        r2 = next(h for h in g.rotations[v2] if g.colors[h] == RED)
        kill_halves([h1, h2, g.pairing[h1], g.pairing[h2]])
        if pairing[r1] == r2:
            kill_halves([r1, r2])  # a closed red circle: absorbed
        else:
            splice(r1, r2)
        remove_vertex(v1)
        remove_vertex(v2)
        factor = LaurentQ.circle()
    else:
        # a side bigon or a square: erase its red edges, smooth its vertices
        vertices = []
        for h in face.darts:
            for v in (g.vertex_of(h), g.vertex_of(g.pairing[h])):
                if v not in vertices:
                    vertices.append(v)
        for h in face.darts:
            if g.colors[h] == RED:
                kill_halves([h, g.pairing[h]])
        for v in vertices:
            smooth_vertex(v)
        factor = LaurentQ.one()

    g2 = TrivalentGraph(
        {v: tuple(hs) for v, hs in rotations.items()},
        pairing,
        colors,
        circles,
    )
    return g2, factor


def graded_dimension(g):
    """Iterated reduction; must equal graph_evaluation(g)."""
    acc = LaurentQ.one()
    current = g
    while current.red_edge_count():
        face = find_bigon_or_square(current)
        if face is None:
            raise ReductionStuck("red edges remain but no bigon or square found")
        current, factor = reduce_step(current, face)
        acc = acc * factor
    if current.rotations:
        raise ReductionStuck("vertices remain after all red edges were removed")
    return acc * (LaurentQ.circle() ** current.circles)


def cup_basis(g):
    """Dotted-disk basis elements: (dots per blue loop, q-degree)."""
    n = blue_loop_count(g)
    out = []
    for dots in itertools.product((0, 1), repeat=n):
        degree = dots.count(0) - dots.count(1)
        out.append((dots, degree))
    return out


# -- graphs from diagram smoothings -------------------------------------


def smoothing_graph(pd, state):
    """The trivalent graph of a complete smoothing.

    A crossing smoothed against its orientation (the 1-smoothing of a
    positive crossing, the 0-smoothing of a negative one) contributes a
    red edge between two new vertices; the other smoothings just splice
    the strands.  Rotations follow the planar picture, so the result is
    a genuinely planar combinatorial map.
    """
    if pd.n == 0:
        return TrivalentGraph({}, {}, {}, circles=1)
    _, _, signs = compute_signs(pd)
    occ = _arc_occurrences(pd)

    rotations = {}
    colors = {}
    pairing = {}
    stub_of_port = {}
    splice_partner = {}
    for ci in range(pd.n):
        s = state.assignment[ci]
        red_here = (signs[ci] > 0 and s == 1) or (signs[ci] < 0 and s == 0)
        if red_here:
            vA = "v%dA" % ci
            vB = "v%dB" % ci
            if signs[ci] > 0:
                # 1-smoothing joins ports (0,3) and (1,2)
                pA = [(ci, 0), (ci, 3)]
                pB = [(ci, 2), (ci, 1)]
            else:
                # 0-smoothing joins ports (0,1) and (2,3)
                pA = [(ci, 1), (ci, 0)]
                pB = [(ci, 3), (ci, 2)]
            hA = ["h%d_%d" % p for p in pA]
            hB = ["h%d_%d" % p for p in pB]
            rA, rB = "r%dA" % ci, "r%dB" % ci
            rotations[vA] = (rA, hA[0], hA[1])
            rotations[vB] = (hB[0], hB[1], rB)
            for h in hA + hB:
                colors[h] = BLUE
            colors[rA] = RED
            colors[rB] = RED
            pairing[rA] = rB
            pairing[rB] = rA
            for p, h in zip(pA + pB, hA + hB):
                stub_of_port[p] = h
        else:
            if s == 0:
                pairs = [((ci, 0), (ci, 1)), ((ci, 2), (ci, 3))]
            else:
                pairs = [((ci, 0), (ci, 3)), ((ci, 1), (ci, 2))]
            for p1, p2 in pairs:
                splice_partner[p1] = p2
                splice_partner[p2] = p1

    def arc_partner(port):
        ci, si = port
        arc = pd.crossings[ci][si]
        p1, p2 = occ[arc]
        return p2 if p1 == port else p1

    circles = 0
    visited = set()
    # chains between vertex stubs become blue edges
    for port in sorted(stub_of_port):
        if port in visited:
            continue
        visited.add(port)
        cur = arc_partner(port)
        while cur not in stub_of_port:
            visited.add(cur)
            cur = splice_partner[cur]
            visited.add(cur)
            cur = arc_partner(cur)
        visited.add(cur)
        h1 = stub_of_port[port]
        h2 = stub_of_port[cur]
        pairing[h1] = h2
        pairing[h2] = h1
    # leftover splice ports close up into circles
    for port in sorted(splice_partner):
        if port in visited:
            continue
        cur = port
        while cur not in visited:
            visited.add(cur)
            nxt = splice_partner[cur]
            visited.add(nxt)
            cur = arc_partner(nxt)
        circles += 1
    return TrivalentGraph(rotations, pairing, colors, circles)


def random_planar_graph(rng, max_vertices=12):
    """A random smoothing graph of a random braid closure."""
    from .diagram import braid_to_pd

    while True:
        strands = rng.randint(2, 4)
        length = rng.randint(max(2, strands - 1), 7)
        word = []
        for _ in range(length):
            k = rng.randint(1, strands - 1)
            word.append(k if rng.random() < 0.5 else -k)
        try:
            pd = braid_to_pd(word, strands)
        except InvalidBraid:
            continue
        state = State(tuple(rng.randint(0, 1) for _ in range(pd.n)))
        g = smoothing_graph(pd, state)
        if 2 * len(g.rotations) <= 2 * max_vertices and g.rotations:
            return g


# -- JSON form ----------------------------------------------------------


def graph_to_json(g):
    return {
        "vertices": [
            {"id": v, "rotation": list(hs)} for v, hs in sorted(g.rotations.items())
        ],
        "edges": [
            {"halves": [h1, h2], "color": g.colors[h1]} for h1, h2 in g.edges()
        ],
        "circles": g.circles,
    }


def graph_from_json(data):
    try:
        rotations = {v["id"]: tuple(v["rotation"]) for v in data["vertices"]}
        pairing = {}
        colors = {}
        for e in data.get("edges", ()):
            h1, h2 = e["halves"]
            pairing[h1] = h2
            pairing[h2] = h1
            colors[h1] = e["color"]
            colors[h2] = e["color"]
        circles = data.get("circles", 0)
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedFoam("bad graph JSON: %s" % exc) from exc
    # names are hashed and sorted together, so all must be strings
    names = [*rotations, *pairing, *(h for hs in rotations.values() for h in hs)]
    if not all(type(x) is str for x in names):
        raise MalformedFoam(
            "bad graph JSON: vertex ids and half-edges must be strings"
        )
    if type(circles) is not int:  # bool is an int subclass
        raise MalformedFoam("bad graph JSON: circles must be an integer")
    return TrivalentGraph(rotations, pairing, colors, circles)
