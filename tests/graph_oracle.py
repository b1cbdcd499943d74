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
"""

import random
from collections import Counter

from knotfoam import graphs
from knotfoam.diagram import State, braid_to_pd
from knotfoam.errors import InvalidBraid


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
