"""PD codes built and checked the way ``knotfoam.diagram`` first did it.

``braid_crossings`` closes a braid by three numbering passes: fresh
labels per crossing, a ``rename`` of each strand's last label to its
position, and a ``relabel`` of the sorted label set.  ``check`` runs the
original self-check of a code: ``_far_ends`` with a dict of port lists,
``_check_planar`` with a union-find over ports, and ``_trace`` with a
deque of (port, head) tuples.  The tests compare ``braid_to_pd`` and
``PDCode`` against them: the same crossings, ``far`` and ``over_from_3``
on good codes, and the same first InvalidDiagram message on bad ones.

``compare`` runs that comparison on seeded braids, their mirrors and
seeded corruptions of their codes; it is the body of the tier-1 test and
of a larger run in a fresh interpreter::

    PYTHONPATH=src:tests python -c 'import pd_oracle; pd_oracle.compare(1, 30000, 300000)'
"""

import random
from collections import deque

from knotfoam.diagram import PDCode, braid_to_pd, mirror
from knotfoam.errors import InvalidBraid, InvalidDiagram


def braid_crossings(word, strands):
    """The crossings of a braid closure, numbered in three passes."""
    if strands < 2:
        raise InvalidBraid("need at least 2 strands")
    for w in word:
        if w == 0 or abs(w) >= strands:
            raise InvalidBraid("generator %d out of range for %d strands" % (w, strands))
    touched = set()
    for w in word:
        touched.add(abs(w))
        touched.add(abs(w) + 1)
    if len(touched) != strands:
        raise InvalidBraid("closure has a crossingless component")

    cur = {pos: pos for pos in range(1, strands + 1)}
    next_arc = strands + 1
    crossings = []
    for w in word:
        k = abs(w)
        fresh1, fresh2 = next_arc, next_arc + 1
        next_arc += 2
        if w > 0:
            crossings.append((cur[k], fresh1, fresh2, cur[k + 1]))
            cur[k], cur[k + 1] = fresh1, fresh2
        else:
            crossings.append((cur[k + 1], cur[k], fresh1, fresh2))
            cur[k], cur[k + 1] = fresh1, fresh2

    rename = {final: pos for pos, final in cur.items()}
    crossings = [tuple(rename.get(a, a) for a in c) for c in crossings]

    labels = sorted({a for c in crossings for a in c})
    relabel = {a: i + 1 for i, a in enumerate(labels)}
    return tuple(tuple(relabel[a] for a in c) for c in crossings)


def check(crossings):
    """(far, over_from_3) of a code of 4-tuples of ints, or InvalidDiagram."""
    crossings = tuple(tuple(c) for c in crossings)
    far = tuple(_far_ends(crossings))
    _check_planar(len(crossings), far)
    return far, tuple(_trace(crossings, far))


def mirror_crossings(crossings, over_from_3):
    out = []
    for (a, b, c, d), from_3 in zip(crossings, over_from_3):
        out.append((d, a, b, c) if from_3 else (b, c, d, a))
    return tuple(out)


def _far_ends(crossings):
    ports = {}
    for port, arc in enumerate(a for c in crossings for a in c):
        ports.setdefault(arc, []).append(port)
    far = [0] * (4 * len(crossings))
    for arc, pair in ports.items():
        if arc <= 0:
            raise InvalidDiagram("arc labels must be positive, got %r" % arc)
        if len(pair) != 2:
            raise InvalidDiagram("arc %d appears %d times, expected 2"
                                 % (arc, len(pair)))
        p, q = pair
        far[p], far[q] = q, p
    return far


def _check_planar(n, far):
    piece = list(range(n))
    for p, q in enumerate(far):
        piece[_find(piece, p // 4)] = _find(piece, q // 4)
    pieces = sum(1 for ci in range(n) if piece[ci] == ci)
    faces = len(_faces(far))
    if n - 2 * n + faces != 2 * pieces:
        raise InvalidDiagram(
            "PD code is not planar: %d crossings in %d pieces bound %d "
            "regions, expected %d" % (n, pieces, faces, n + 2 * pieces)
        )


def _faces(far):
    step = [q - q % 4 + (q + 1) % 4 for q in far]
    seen = [False] * len(far)
    faces = []
    for start in range(len(far)):
        if not seen[start]:
            walk = []
            port = start
            while not seen[port]:
                seen[port] = True
                walk.append(port)
                port = step[port]
            faces.append(walk)
    return faces


def _find(parent, x):
    while parent[x] != x:
        parent[x] = x = parent[parent[x]]
    return x


def _trace(crossings, far):
    n = len(crossings)
    queue = deque()
    for ci in range(n):
        queue.append((4 * ci, True))
        queue.append((4 * ci + 2, False))
    over_from_3 = [None] * n

    def set_over(ci, from_3):
        if over_from_3[ci] is not None:
            if over_from_3[ci] != from_3:
                raise InvalidDiagram("orientation conflict at crossing %d" % ci)
            return
        over_from_3[ci] = from_3
        head, tail = (3, 1) if from_3 else (1, 3)
        queue.append((4 * ci + head, True))
        queue.append((4 * ci + tail, False))

    while True:
        while queue:
            port, head = queue.popleft()
            far_head = not head
            ci, si = divmod(far[port], 4)
            if si % 2 == 0:
                if far_head != (si == 0):
                    raise InvalidDiagram("arc %d cannot close up"
                                         % crossings[ci][si])
            else:
                set_over(ci, far_head == (si == 3))
        undecided = [ci for ci in range(n) if over_from_3[ci] is None]
        if not undecided:
            break
        set_over(undecided[0], True)
    return over_from_3


# -- the comparison -----------------------------------------------------


def random_word(rng):
    """A seeded braid: 2-6 strands, 0-16 letters, any generator in range."""
    strands = rng.randint(2, 6)
    word = [rng.choice((1, -1)) * rng.randint(1, strands - 1)
            for _ in range(rng.randint(0, 16))]
    return word, strands


def corrupt(rng, crossings):
    """One seeded corruption of a code's 4-tuples.

    Swaps two labels, rotates or reverses one crossing, or relabels one
    slot with a label of the code, a new one, 0 or a negative one.
    """
    rows = [list(c) for c in crossings]
    ci = rng.randrange(len(rows))
    kind = rng.randrange(4)
    if kind == 0:
        cj = rng.randrange(len(rows))
        si, sj = rng.randrange(4), rng.randrange(4)
        rows[ci][si], rows[cj][sj] = rows[cj][sj], rows[ci][si]
    elif kind == 1:
        r = rng.randint(1, 3)
        rows[ci] = rows[ci][r:] + rows[ci][:r]
    elif kind == 2:
        rows[ci].reverse()
    else:
        top = 2 * len(rows)
        rows[ci][rng.randrange(4)] = rng.choice(
            (rng.randint(1, top), top + 1, 0, -rng.randint(1, 3)))
    return tuple(tuple(c) for c in rows)


def _outcome(build, *args):
    """What a build gives: ("ok", value), or the class and message it raised."""
    try:
        return "ok", build(*args)
    except (InvalidBraid, InvalidDiagram) as exc:
        return type(exc).__name__, str(exc)


def _built(word, strands):
    pd = braid_to_pd(word, strands)
    return pd.crossings, pd.far, pd.over_from_3


def _checked(crossings):
    pd = PDCode(crossings)
    return pd.far, pd.over_from_3


def compare(seed, braids, corruptions):
    """Compare the package with the oracle; returns what it checked.

    ``braids`` seeded braids are closed by both, and every closure and its
    mirror must have the same crossings, ``far`` and ``over_from_3``, or
    the same InvalidBraid message.  Then ``corruptions`` seeded
    corruptions of those codes and mirrors must give the same ``far`` and
    trace, or the same first InvalidDiagram message.  Raises
    AssertionError, naming the input, on the first difference.  Returns
    the number of codes, of corruptions and of invalid ones, and the set
    of messages they raised.
    """
    rng = random.Random(seed)
    codes = []
    for _ in range(braids):
        word, strands = random_word(rng)
        got = _outcome(_built, word, strands)
        want = _outcome(braid_crossings, word, strands)
        if want[0] == "ok":
            want = "ok", (want[1],) + check(want[1])
        assert got == want, (word, strands, got, want)
        if got[0] != "ok":
            continue
        crossings, _, over = got[1]
        m = mirror_crossings(crossings, over)
        pd = mirror(PDCode(crossings))
        assert (pd.crossings, pd.far, pd.over_from_3) == (m,) + check(m), \
            (word, strands)
        codes += [crossings, m]
    invalid = []
    for _ in range(corruptions):
        bad = corrupt(rng, rng.choice(codes))
        got = _outcome(_checked, bad)
        assert got == _outcome(check, bad), (bad, got)
        if got[0] != "ok":
            invalid.append(got[1])
    return {"codes": len(codes), "corruptions": corruptions,
            "invalid": len(invalid), "messages": set(invalid)}
