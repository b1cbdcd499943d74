"""Graph reduction's face search the way ``knotfoam.graphs`` first did it.

``least_face`` recomputes every orbit of the face permutation with
``TrivalentGraph.faces``, each starting at its least dart and sorted by
it, and takes the first reducible bigon, else the first square.  The
package's ``_least_face`` walks the sorted darts with a turn map built
once per reduction instead; the tests compare the two.

``compare`` runs ``graded_dimension`` on seeded graphs with its face
search checked against ``least_face`` at every step of the working
copy; it is the body of the tier-1 test and of a larger run in a fresh
interpreter::

    PYTHONPATH=src:tests python -c 'import graph_oracle; graph_oracle.compare(1, 12000, 8000)'

``validate_reference`` is ``TrivalentGraph.validate`` as it first was: a
list of colors counted per vertex and a scan for unpaired half-edges on
every call.  ``compare_validate`` builds seeded graphs with one seeded
corruption each through both and requires the same outcome::

    PYTHONPATH=src:tests python -c 'import graph_oracle; graph_oracle.compare_validate(1, 12000, 8000)'
"""

import random
import re
from collections import Counter

from knotfoam import graphs
from knotfoam.diagram import State, braid_to_pd
from knotfoam.errors import InvalidBraid, MalformedFoam
from knotfoam.graphs import BLUE, RED


def least_face(g):
    """The bigon with the least dart, else the square with the least dart."""
    square = None
    for darts in g.faces():
        kind = graphs._classify_face(g, darts)
        if kind == "square":
            square = square or graphs.Face(darts, kind)
        elif kind:
            return graphs.Face(darts, kind)
    return square


def uniform_states(rng, count):
    """Braids of 10-12 letters on 3-5 strands, each with a uniform state.

    Red rungs land on adjacent strand pairs too, which the benchmark's
    graphs never have, so some reductions are left with no bigon or
    square and erase a red edge.
    """
    out = []
    while len(out) < count:
        strands = rng.randint(3, 5)
        word = [rng.choice((1, -1)) * rng.randint(1, strands - 1)
                for _ in range(rng.randint(10, 12))]
        try:
            pd = braid_to_pd(word, strands)
        except InvalidBraid:
            continue
        out.append((pd, State(tuple(rng.randint(0, 1) for _ in range(pd.n)))))
    return out


def compare(seed, randoms, smoothings, extra=()):
    """Reduce seeded graphs, checking each face chosen against least_face.

    The graphs are ``extra``, then ``randoms`` from
    ``random_planar_graph`` and ``smoothings`` smoothing graphs of
    ``uniform_states``.  Each must reduce to its graph_evaluation, and at
    every step the face ``graded_dimension`` picks must equal
    ``least_face`` of the working copy.  Raises AssertionError, with the
    working copy's JSON, on the first difference.  Returns the number of
    graphs and of steps, and the steps by the kind of face chosen ("erase"
    where there was none).
    """
    rng = random.Random(seed)
    pool = list(extra)
    pool += [graphs.random_planar_graph(rng) for _ in range(randoms)]
    pool += [graphs.smoothing_graph(pd, state)
             for pd, state in uniform_states(rng, smoothings)]
    kinds = Counter()
    search = graphs._least_face

    def checked(g, order, turn):
        got = search(g, order, turn)
        want = least_face(g)
        assert got == want, (graphs.graph_to_json(g), got, want)
        kinds[got.kind if got else "erase"] += 1
        return got

    graphs._least_face = checked
    try:
        for g in pool:
            assert graphs.graded_dimension(g) == graphs.graph_evaluation(g), \
                graphs.graph_to_json(g)
    finally:
        graphs._least_face = search
    return {"graphs": len(pool), "steps": sum(kinds.values()), **kinds}


# -- validation ---------------------------------------------------------


def validate_reference(g):
    colors = g.colors
    for v, hs in g.rotations.items():
        if len(hs) != 3:
            raise MalformedFoam("vertex %r is not trivalent" % v)
        cs = [colors.get(h) for h in hs]
        if cs.count(RED) != 1 or cs.count(BLUE) != 2:
            raise MalformedFoam(
                "vertex %r needs one red and two blue half-edges" % v
            )
    if len(g._vertex_of) != 3 * len(g.rotations):
        slots = [h for hs in g.rotations.values() for h in hs]
        h = next(h for h in slots if slots.count(h) > 1)
        raise MalformedFoam("half-edge %r sits in more than one rotation "
                            "slot" % h)
    for h, h2 in g.pairing.items():
        if h2 == h or g.pairing.get(h2) != h:
            raise MalformedFoam("half-edge pairing is not an involution")
        if h not in g._vertex_of:
            raise MalformedFoam("half-edge %r belongs to no vertex" % h)
        if colors[h] != colors.get(h2):
            raise MalformedFoam("edge %r-%r changes color" % (h, h2))
    for h in g._vertex_of:
        if h not in g.pairing:
            raise MalformedFoam("half-edge %r is unpaired" % h)
    if g.circles < 0:
        raise MalformedFoam("negative circle count")


def corrupt(rng, g):
    """The parts of g, rotations, pairing, colors and circles, with one
    seeded corruption.

    Drops a half-edge's color or renames it (to the other color, an
    unknown name or a list); re-pairs a half-edge with another or a new
    one (colored or not), on one side or on both, the former partners
    then paired with each other; unpairs or self-pairs a half-edge, its
    partner left as it is or unpaired too; reuses a rotation slot for
    another half-edge of the graph, or drops the slot; or sets a negative
    circle count.  A graph without half-edges only gets the circle count.
    """
    rotations = {v: list(hs) for v, hs in g.rotations.items()}
    pairing, colors, circles = dict(g.pairing), dict(g.colors), g.circles
    halves = sorted(pairing)
    kind = rng.randrange(6) if halves else 5
    if kind < 5:
        h = rng.choice(halves)
        both = rng.random() < 0.5
    if kind == 0:
        if rng.random() < 0.5:
            del colors[h]
        else:
            colors[h] = rng.choice(
                (RED if colors[h] == BLUE else BLUE, "green", [colors[h]]))
    elif kind == 1:
        other = "x" if rng.random() < 0.25 else rng.choice(halves)
        partner, former = pairing[h], pairing.get(other)
        pairing[h] = other
        if both:  # and the former partners with each other
            pairing[other] = h
            if former is None:
                del pairing[partner]
                if rng.random() < 0.5:
                    colors[other] = colors[h]
            else:
                pairing[partner] = former
                pairing[former] = partner
    elif kind == 2:
        if both:
            del pairing[pairing[h]]
        del pairing[h]
    elif kind == 3:
        if both:
            del pairing[pairing[h]]
        pairing[h] = h
    elif kind == 4:
        v = rng.choice(sorted(rotations))
        if both:
            rotations[v][rng.randrange(3)] = h
        else:  # or leaves it out
            del rotations[v][rng.randrange(3)]
    else:
        circles = -rng.randint(1, 3)
    return rotations, pairing, colors, circles


def _built(*parts):
    """What the constructor gives: "ok", or the class and message it raised."""
    try:
        graphs.TrivalentGraph(*parts)
        return "ok"
    except Exception as exc:  # a TypeError must match too
        return type(exc).__name__, str(exc)


def compare_validate(seed, randoms, smoothings):
    """Build corrupted graphs with validate and with validate_reference.

    ``randoms`` graphs from ``random_planar_graph`` and ``smoothings``
    smoothing graphs of ``uniform_states`` each get one corruption; both
    versions must accept it, or raise the same exception with the same
    message.  Raises AssertionError, naming the parts, on the first
    difference.  Returns the count of each outcome, its names replaced
    by ``_``.
    """
    rng = random.Random(seed)
    pool = [graphs.random_planar_graph(rng) for _ in range(randoms)]
    pool += [graphs.smoothing_graph(pd, state)
             for pd, state in uniform_states(rng, smoothings)]
    outcomes = Counter()
    validate = graphs.TrivalentGraph.validate
    for g in pool:
        parts = corrupt(rng, g)
        got = _built(*parts)
        graphs.TrivalentGraph.validate = validate_reference
        try:
            want = _built(*parts)
        finally:
            graphs.TrivalentGraph.validate = validate
        assert got == want, (parts, got, want)
        outcomes[got if got == "ok" else re.sub(r"'[^']*'", "_", got[1])] += 1
    return outcomes
