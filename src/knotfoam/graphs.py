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
has such a face (the smoothing graph of the closure of (s1 s2^-1)^3 at
state (1,0,1,0,1,0) has none), but none is needed: a 2-labelled edge of
a gl2 web is removed without a shift (Blanchet 2010), and erasing a red
edge and smoothing its two vertices keeps every blue loop.

graded_dimension copies its argument once and reduces that working
copy in place.  Each step removes the bigon (central or side) with the
least dart, or else the square with the least dart, or else erases the
red edge with the least dart, by one move, :func:`_move`, and then
validates the copy again.  The face is found without making every
face again: a move deletes whole vertices and re-pairs the half-edges
left on the others, but never changes the rotation of a vertex that
survives, so the turn map (dart -> next dart in its vertex's rotation)
and the sorted darts are made once, and each search follows only the
2- and 4-cycles of the face permutation from the live darts in order.
reduce_step is the same move on a fresh copy, once its face descriptor
is checked against :meth:`TrivalentGraph.faces`.  The factors are kept
as one exponent k of (q + q^-1)^k.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .diagram import State, braid_to_pd
from .errors import (InvalidBraid, InvalidDiagram, InvalidFace, MalformedFoam,
                     ReductionStuck)
from .foam import _json_list
from .polyring import LaurentQ

BLUE = "blue"
RED = "red"
# the colors of a vertex's rotation, its one red half-edge in any slot
_VERTEX_COLORS = ((RED, BLUE, BLUE), (BLUE, RED, BLUE), (BLUE, BLUE, RED))


class TrivalentGraph:
    def __init__(self, rotations, pairing, colors, circles=0):
        self.rotations = {v: tuple(h) for v, h in rotations.items()}
        self.pairing = dict(pairing)
        self.colors = dict(colors)
        # names are hashed and sorted together, so all must be strings
        names = (self.rotations, self.pairing, *self.rotations.values())
        if not set(map(type, itertools.chain(*names))) <= {str}:
            x = next(x for x in itertools.chain(*names) if type(x) is not str)
            raise MalformedFoam("vertex or half-edge %r is not a string" % (x,))
        if type(circles) is not int:  # bool is an int subclass
            raise MalformedFoam("circles must be an integer, not %r" % (circles,))
        self.circles = circles
        self._vertex_of = {h: v for v, hs in self.rotations.items() for h in hs}
        self.validate()

    def _copy(self):
        """An unvalidated copy whose dicts :func:`_move` may change."""
        g = object.__new__(TrivalentGraph)
        g.rotations = dict(self.rotations)
        g.pairing = dict(self.pairing)
        g.colors = dict(self.colors)
        g.circles = self.circles
        g._vertex_of = dict(self._vertex_of)
        return g

    def validate(self):
        colors, pairing, vertex_of = self.colors, self.pairing, self._vertex_of
        color, partner = colors.get, pairing.get
        for v, hs in self.rotations.items():
            if len(hs) != 3:
                raise MalformedFoam("vertex %r is not trivalent" % v)
            a, b, c = hs
            # compared with ==, never hashed: a JSON color may be a list
            if (color(a), color(b), color(c)) not in _VERTEX_COLORS:
                raise MalformedFoam(
                    "vertex %r needs one red and two blue half-edges" % v
                )
        if len(vertex_of) != 3 * len(self.rotations):
            slots = [h for hs in self.rotations.values() for h in hs]
            h = next(h for h in slots if slots.count(h) > 1)
            raise MalformedFoam("half-edge %r sits in more than one rotation "
                                "slot" % h)
        for h, h2 in pairing.items():
            if h2 == h or partner(h2) != h:
                raise MalformedFoam("half-edge pairing is not an involution")
            if h not in vertex_of:
                raise MalformedFoam("half-edge %r belongs to no vertex" % h)
            if colors[h] != color(h2):
                raise MalformedFoam("edge %r-%r changes color" % (h, h2))
        # every paired half-edge is on a vertex, so equal counts leave
        # none unpaired
        if len(pairing) != len(vertex_of):
            for h in vertex_of:
                if h not in pairing:
                    raise MalformedFoam("half-edge %r is unpaired" % h)
        if self.circles < 0:
            raise MalformedFoam("negative circle count")

    # -- basic structure -----------------------------------------------

    def vertex_of(self, h):
        return self._vertex_of[h]

    def edges(self):
        # the pairing is an involution without fixed points
        return sorted((h, h2) for h, h2 in self.pairing.items() if h < h2)

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

    def faces(self):
        """Orbits of the face permutation, each starting at its least dart."""
        turn = _turns(self)
        pairing = self.pairing
        step = {h: turn[pairing[h]] for h in self._vertex_of}
        seen = set()
        out = []
        for start in sorted(step):
            if start in seen:
                continue
            walk = []
            h = start
            while h not in seen:
                seen.add(h)
                walk.append(h)
                h = step[h]
            out.append(tuple(walk))
        return out


def _turns(g):
    """turn[h]: the dart after h in the rotation of its vertex."""
    turn = {}
    for a, b, c in g.rotations.values():
        turn[a], turn[b], turn[c] = b, c, a
    return turn


def blue_loop_count(g):
    return len(g.blue_loops()) + g.circles


def graph_evaluation(g):
    """(q + q^-1) to the number of blue loops."""
    return LaurentQ.circle(blue_loop_count(g))


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
    # two colors alternating around four darts: two of them red
    if len(darts) == 4 and colors[0] != colors[1] != colors[2] != colors[3]:
        return "square"
    return None


def find_bigon_or_square(g):
    """A reducible face, or None; a graph without red edges has no darts."""
    return _least_face(g, sorted(g.pairing), _turns(g))


def _least_face(g, order, turn):
    """The bigon with the least dart, else the square with the least dart.

    ``order`` holds every live dart of g in ascending order (dead ones
    are skipped) and ``turn`` maps each live dart to the next in its
    vertex's rotation, as :func:`_turns` does.  A dart h starts a face,
    as its least dart, when each later dart of the orbit of h under
    turn[pairing[.]] is greater than h; only orbits of length 2 and 4 are
    followed that far.  So the face, and the order of its darts, is the
    first bigon, else the first square, of :meth:`faces`.
    """
    pairing = g.pairing
    square = None
    for h in order:
        p = pairing.get(h)
        if p is None:  # a dart a move removed
            continue
        h1 = turn[p]
        if h1 <= h:  # a 1-cycle, or h is not least
            continue
        h2 = turn[pairing[h1]]
        if h2 == h:
            kind = _classify_face(g, (h, h1))
            if kind:
                return Face((h, h1), kind)
            continue
        if square or h2 < h:
            continue
        h3 = turn[pairing[h2]]
        if h3 > h and turn[pairing[h3]] == h \
                and _classify_face(g, (h, h1, h2, h3)) == "square":
            square = Face((h, h1, h2, h3), "square")
    return square


def _move(g, face):
    """Remove one bigon or square from g in place, without validating g
    or the face; a "side-bigon" of one red dart erases just that edge.

    Returns the number of red edges erased and the exponent k of the
    graded factor (q + q^-1)^k.
    """
    rotations, pairing, colors = g.rotations, g.pairing, g.colors
    vertex_of = g._vertex_of
    red_halves = 0

    def kill(*halves):
        nonlocal red_halves
        for h in halves:
            pairing.pop(h, None)
            if colors.pop(h, None) == RED:
                red_halves += 1

    def splice(p1, p2):
        # join the outside partners of two dead half-edges
        a = pairing[p1]
        b = pairing[p2]
        kill(p1, p2)
        if a == p2:  # the two stubs were each other's partners: a circle
            g.circles += 1
            return
        pairing[a] = b
        pairing[b] = a

    def remove_vertex(v):
        for h in rotations.pop(v):
            del vertex_of[h]

    if face.kind == "central-bigon":
        h1, h2 = face.darts
        v1, v2 = vertex_of[h1], vertex_of[h2]
        r1 = next(h for h in rotations[v1] if colors[h] == RED)
        r2 = next(h for h in rotations[v2] if colors[h] == RED)
        kill(h1, h2, pairing[h1], pairing[h2])
        if pairing[r1] == r2:
            kill(r1, r2)  # a closed red circle: absorbed
        else:
            splice(r1, r2)
        remove_vertex(v1)
        remove_vertex(v2)
        return red_halves // 2, 1
    # a side bigon or a square: erase its red edges, smooth its vertices
    vertices = []
    for h in face.darts:
        for v in (vertex_of[h], vertex_of[pairing[h]]):
            if v not in vertices:
                vertices.append(v)
    kill(*[x for h in face.darts if colors[h] == RED for x in (h, pairing[h])])
    for v in vertices:
        left = [h for h in rotations[v] if h in pairing]
        if len(left) != 2:
            raise InvalidFace("vertex %r cannot be smoothed" % v)
        splice(*left)
        remove_vertex(v)
    return red_halves // 2, 0


def reduce_step(g, face):
    """Remove one bigon or square; returns (graph, graded factor).

    ``face.darts`` must be one orbit of the face permutation, in order
    from any of its darts, and ``face.kind`` its kind.
    """
    darts = tuple(face.darts)
    for h in darts:
        if h not in g.pairing:
            raise InvalidFace("dart %r is not in the graph" % h)
    # faces() starts each orbit at its least dart
    least = darts.index(min(darts)) if darts else 0
    if darts[least:] + darts[:least] not in g.faces():
        raise InvalidFace("darts %r are not one face of the graph, in order"
                          % (darts,))
    if _classify_face(g, darts) != face.kind:
        raise InvalidFace("face descriptor does not match the graph")
    g2 = g._copy()
    _, k = _move(g2, face)
    g2.validate()
    return g2, LaurentQ.circle(k)


def graded_dimension(g):
    """Iterated reduction on a working copy; must equal graph_evaluation(g).

    The turn map and the sorted darts are made once, from g.  A move
    removes whole vertices and re-pairs the half-edges left on the
    others, but never changes the rotation of a vertex that survives, so
    the turn map stays right for every live dart and the order only
    loses darts, which :func:`_least_face` skips.
    """
    work = g._copy()
    turn = _turns(g)
    order = sorted(g.pairing)
    reds = g.red_edge_count()
    loops = 0
    while reds:
        face = _least_face(work, order, turn) or Face(
            (min(h for h in work.pairing if work.colors[h] == RED),),
            "side-bigon")
        erased, k = _move(work, face)
        work.validate()
        reds -= erased
        loops += k
    if work.rotations:
        raise ReductionStuck("vertices remain after all red edges were removed")
    return LaurentQ.circle(loops + work.circles)


def cup_basis(g):
    """Dotted-disk basis elements: (dots per blue loop, q-degree)."""
    n = blue_loop_count(g)
    out = []
    for dots in itertools.product((0, 1), repeat=n):
        degree = dots.count(0) - dots.count(1)
        out.append((dots, degree))
    return out


# -- graphs from diagram smoothings -------------------------------------


@functools.cache
def _port_names(ports):
    """Half-edge names "h<ci>_<si>" of ports 4 * ci + si, one table per
    size, so dict lookups during a reduction compare names by identity."""
    return tuple("h%d_%d" % divmod(port, 4) for port in range(ports))


def smoothing_graph(pd, state):
    """The trivalent graph of a complete smoothing.

    A crossing smoothed against its orientation (the 1-smoothing of a
    positive crossing, the 0-smoothing of a negative one) contributes a
    red edge between two new vertices; the other smoothings just splice
    the strands.  Rotations follow the planar picture, so the result is
    a genuinely planar combinatorial map.  Ports are flat, 4 * crossing
    + slot, and the half-edge at port (ci, si) is named ``h<ci>_<si>``.
    """
    if pd.n == 0:
        return TrivalentGraph({}, {}, {}, circles=1)
    if len(state.assignment) != pd.n:
        raise InvalidDiagram("state length does not match crossing count")
    far = pd.far

    names = _port_names(4 * pd.n)
    rotations = {}
    colors = {}
    pairing = {}
    splice = [None] * (4 * pd.n)  # None at a vertex stub
    for ci, (s, positive) in enumerate(zip(state.assignment, pd.over_from_3)):
        p = 4 * ci
        if positive == (s == 1):  # smoothed against its orientation
            if positive:
                # 1-smoothing joins ports (0,3) and (1,2)
                ports = (p, p + 3, p + 2, p + 1)
            else:
                # 0-smoothing joins ports (0,1) and (2,3)
                ports = (p + 1, p, p + 3, p + 2)
            a0, a1, b0, b1 = halves = [names[x] for x in ports]
            rA, rB = "r%dA" % ci, "r%dB" % ci
            rotations["v%dA" % ci] = (rA, a0, a1)
            rotations["v%dB" % ci] = (b0, b1, rB)
            for h in halves:
                colors[h] = BLUE
            colors[rA] = RED
            colors[rB] = RED
            pairing[rA] = rB
            pairing[rB] = rA
        else:
            if s == 0:
                pairs = ((p, p + 1), (p + 2, p + 3))
            else:
                pairs = ((p, p + 3), (p + 1, p + 2))
            for x, y in pairs:
                splice[x] = y
                splice[y] = x

    circles = 0
    visited = [False] * (4 * pd.n)
    # chains between vertex stubs become blue edges
    for port, partner in enumerate(splice):
        if partner is not None or visited[port]:
            continue
        visited[port] = True
        cur = far[port]
        while splice[cur] is not None:
            visited[cur] = True
            cur = splice[cur]
            visited[cur] = True
            cur = far[cur]
        visited[cur] = True
        h1 = names[port]
        h2 = names[cur]
        pairing[h1] = h2
        pairing[h2] = h1
    # leftover splice ports close up into circles
    for port in range(4 * pd.n):
        if visited[port]:
            continue
        cur = port
        while not visited[cur]:
            visited[cur] = True
            nxt = splice[cur]
            visited[nxt] = True
            cur = far[nxt]
        circles += 1
    return TrivalentGraph(rotations, pairing, colors, circles)


def random_planar_graph(rng):
    """A random smoothing graph of a random braid closure, with 1-12
    vertices."""
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
        if 0 < len(g.rotations) <= 12:
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
        rotations = {v["id"]: _json_list(v["rotation"]) for v in data["vertices"]}
        pairing = {}
        colors = {}
        for e in data.get("edges", ()):
            h1, h2 = _json_list(e["halves"])
            pairing[h1] = h2
            pairing[h2] = h1
            colors[h1] = e["color"]
            colors[h2] = e["color"]
        circles = data.get("circles", 0)
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedFoam("bad graph JSON: %s" % exc) from exc
    return TrivalentGraph(rotations, pairing, colors, circles)
