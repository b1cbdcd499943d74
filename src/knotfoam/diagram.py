"""Link diagrams as planar-diagram (PD) codes.

A PD code lists one 4-tuple of arc labels per crossing, read
counterclockwise starting at the incoming under-strand.  The
under-strand therefore runs from slot 0 to slot 2; the over-strand
occupies slots 1 and 3 and its direction is recovered by tracing
orientations around the diagram.  With that convention a crossing is
positive when the over-strand runs from slot 3 to slot 1 (matching the
usual published tables: the table trefoil X[1,4,2,5];X[3,6,4,1];
X[5,2,6,3] comes out with three negative crossings).

The 0-smoothing merges slots (0,1) and (2,3); the 1-smoothing merges
(0,3) and (1,2).  The resolution respecting every strand orientation is
then the 0-smoothing at positive crossings and the 1-smoothing at
negative ones, and its circles are the Seifert circles of the diagram.

A port is one slot of one crossing, numbered 4 * crossing + slot.  A
code is checked once, when it is built: it must be a tuple or list of
crossings, ``_far_ends`` wants a tuple or list of four int labels per
crossing and two ports per positive arc, the pieces (a walk
along ``far``) and faces must show a planar projection, and the
orientation trace must close up, or the constructor raises
InvalidDiagram.  The code then carries the port array ``far`` (port ->
the other port of its arc, the one arc index) and the trace
``over_from_3``, and no reader checks or indexes it again.

After its first cube build a code also carries ``cube``, the walk of
:func:`_smoothings` and the states of each height a build has asked for,
which its later builds reuse (see ``khovanov.build_complex``).
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, count

from .errors import InvalidBraid, InvalidDiagram, InvalidSite, ParseError


@dataclass(frozen=True)
class PDCode:
    crossings: tuple = ()
    # far[port]: the other port of its arc
    far: tuple = field(init=False, compare=False, repr=False)
    # per crossing, true when the over-strand runs slot 3 -> slot 1
    over_from_3: tuple = field(init=False, compare=False, repr=False)
    # khovanov._Cube, made by the code's first cube build
    cube: object = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        if not isinstance(self.crossings, (tuple, list)):
            raise InvalidDiagram("PD code must be a tuple or list of crossings, not %s"
                                 % type(self.crossings).__name__)
        far = _far_ends(self.crossings)
        object.__setattr__(self, "crossings", tuple(map(tuple, self.crossings)))
        object.__setattr__(self, "far", far)
        _check_planar(self)
        object.__setattr__(self, "over_from_3", tuple(_trace(self)))

    @property
    def n(self):
        return len(self.crossings)

    def arcs(self):
        out = set()
        for c in self.crossings:
            out.update(c)
        return out

    def __str__(self):
        return ";".join("X[%d,%d,%d,%d]" % c for c in self.crossings)


def _far_ends(crossings):
    """far[port]: the other port of its arc, as a tuple.

    Checks, crossing by crossing, for a tuple or list of four labels of
    type int, and then each arc, in the order of its first port, for a
    positive label and for exactly two ports.
    """
    far = [-1] * (4 * len(crossings))
    first = {}  # arc -> its first port
    setdefault = first.setdefault
    port = 0
    for ci, c in enumerate(crossings):
        if not isinstance(c, (tuple, list)):  # a set or dict has no slot order
            raise InvalidDiagram("crossing %d must be a tuple or list, not %s"
                                 % (ci, type(c).__name__))
        if len(c) != 4:
            raise InvalidDiagram("crossing %d has %d labels, expected 4" % (ci, len(c)))
        for arc in c:
            if type(arc) is not int:
                raise InvalidDiagram("arc labels must be integers, got %r" % (arc,))
            p = setdefault(arc, port)
            if p != port:
                far[p] = port
                far[port] = p
            port += 1
    # an arc on one port leaves a -1; with none, 2n labels on 4n ports are two each
    if -1 in far or 2 * len(first) != port or min(first, default=1) <= 0:
        for arc, ports in Counter(chain.from_iterable(crossings)).items():
            if arc <= 0:
                raise InvalidDiagram("arc labels must be positive, got %r" % arc)
            if ports != 2:
                raise InvalidDiagram("arc %d appears %d times, expected 2"
                                     % (arc, ports))
    return tuple(far)


def _check_planar(pd):
    """Require V - E + F = 2, with E = 2V, on each piece of the projection.

    The slot order makes the projection a 4-valent graph on a closed
    oriented surface, with the walks of :func:`regions` as faces; each
    piece has V - E + F = 2 - 2 * genus, so the pieces all lie on spheres
    exactly when the totals give 2 per piece.  On a non-planar (virtual)
    code a cube edge can keep one circle as one circle.  Pieces are
    walks along ``far``; the crossing of port q is q >> 2.
    """
    far = pd.far
    seen = [False] * pd.n
    pieces = 0
    for start in range(pd.n):
        if not seen[start]:
            pieces += 1
            seen[start] = True
            piece = [start]
            for ci in piece:  # grows as the walk reaches new crossings
                for q in far[4 * ci:4 * ci + 4]:
                    if not seen[q >> 2]:
                        seen[q >> 2] = True
                        piece.append(q >> 2)
    faces = len(_faces(far))
    if pd.n - 2 * pd.n + faces != 2 * pieces:
        raise InvalidDiagram(
            "PD code is not planar: %d crossings in %d pieces bound %d "
            "regions, expected %d" % (pd.n, pieces, faces, pd.n + 2 * pieces)
        )


def _faces(far):
    """The walks of :func:`regions` over flat ports.

    A port steps along its arc and turns one slot counterclockwise at
    the far end.
    """
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


def _trace(pd):
    """Assign a direction to every over-strand.

    Returns ``over_from_3`` -- a list of booleans, one per crossing,
    true when the over-strand runs slot 3 -> slot 1 (positive crossing).
    Raises InvalidDiagram when no consistent assignment exists.  When a
    component never passes under a crossing its direction is not forced;
    the first undetermined crossing is then resolved to positive, which
    keeps the result deterministic.
    """
    # a breadth-first queue of ports, with heads[k] true when the arc at
    # ports[k] flows into the crossing there and false when it leaves; each
    # port is queued once, slots 0 and 2 here and 1 and 3 when decided
    far = pd.far
    ports = list(range(0, 4 * pd.n, 2))
    heads = [True, False] * pd.n
    over_from_3 = [None] * pd.n
    k = undecided = 0
    while True:
        while k < len(ports):
            q = far[ports[k]]  # a tail when ports[k] is a head, a head if not
            head = heads[k]
            k += 1
            ci, si = q >> 2, q & 3
            from_3 = head == (si == 1)  # over runs 3 -> 1: a head at 3, a tail at 1
            if not si & 1:
                if head != (si == 2):
                    raise InvalidDiagram("arc %d cannot close up"
                                         % pd.crossings[ci][si])
            elif over_from_3[ci] is None:
                over_from_3[ci] = from_3
                # slots 3 and 1, or 1 and 3, of the crossing of q
                ports += (q | 3, q & ~2) if from_3 else (q & ~2, q | 3)
                heads += (True, False)
            elif over_from_3[ci] != from_3:
                raise InvalidDiagram("orientation conflict at crossing %d" % ci)
        try:
            undecided = over_from_3.index(None, undecided)
        except ValueError:
            return over_from_3
        over_from_3[undecided] = True
        ports += (4 * undecided + 3, 4 * undecided + 1)
        heads += (True, False)


def compute_signs(pd):
    """(n_plus, n_minus, per-crossing signs) from the orientation trace."""
    signs = [1 if o else -1 for o in pd.over_from_3]
    n_plus = sum(1 for s in signs if s > 0)
    return n_plus, pd.n - n_plus, signs


def link_components(pd):
    """Number of link components (1 for the empty unknot diagram)."""
    if pd.n == 0:
        return 1
    pos = {a: k for k, a in enumerate(pd.arcs())}
    parent = list(range(len(pos)))
    for a, b, c, d in pd.crossings:
        for u, v in ((a, c), (b, d)):
            parent[_find(parent, pos[u])] = _find(parent, pos[v])
    return sum(1 for k, r in enumerate(parent) if k == r)


_PD_TOKEN = re.compile(r"X\[\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\]")


def parse_pd(text):
    """Parse ``X[a,b,c,d];...`` or a bracketed list of 4-tuples.

    The empty string is the 0-crossing unknot diagram.
    """
    text = text.strip()
    if not text:
        return PDCode()
    if text.startswith("[") or text.startswith("("):
        import ast

        try:
            data = ast.literal_eval(text)
        except (ValueError, SyntaxError, MemoryError, RecursionError) as exc:
            raise ParseError("malformed PD list") from exc
        return PDCode(data)  # which checks the shape of what was read
    crossings = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        m = _PD_TOKEN.fullmatch(chunk)
        if not m:
            raise ParseError("expected X[a,b,c,d] at %r" % chunk)
        crossings.append(tuple(map(int, m.groups())))
    return PDCode(crossings)


def braid_to_pd(word, strands):
    """PD code of the closure of a braid word.

    Positive generator k crosses strand k+1 over strand k.  Every strand
    must be involved in at least one crossing, otherwise the closure has
    a crossingless circle that a PD code cannot carry.

    Arcs are numbered in one pass: position k starts on arc k, and the
    arc leaving its last crossing closes up onto it, so is arc k too;
    every other new arc takes the next label from strands + 1, position
    k before k + 1.  That equals giving each crossing two fresh labels,
    renaming each position's last one to the position and renumbering
    the sorted labels from 1: the positions sort first, and the others
    keep the order in which they appear.
    """
    if type(strands) is not int:
        raise InvalidBraid("strand count %r is not an integer" % (strands,))
    if strands < 2:
        raise InvalidBraid("need at least 2 strands")
    last = {}  # strand position -> the index of its last crossing
    for i, w in enumerate(word):
        if type(w) is not int:
            raise InvalidBraid("generator %r is not an integer" % (w,))
        if w == 0 or abs(w) >= strands:
            raise InvalidBraid("generator %d out of range for %d strands" % (w, strands))
        last[abs(w)] = last[abs(w) + 1] = i
    # every touched strand is in range, so counting them is enough
    if len(last) != strands:
        raise InvalidBraid("closure has a crossingless component")

    cur = list(range(strands + 1))  # cur[k]: the arc at position k
    fresh = count(strands + 1)
    crossings = []
    for i, w in enumerate(word):
        k = abs(w)
        a = k if last[k] == i else next(fresh)
        b = k + 1 if last[k + 1] == i else next(fresh)
        if w > 0:
            # right strand over left: X[under_in, over_out, under_out, over_in]
            crossings.append((cur[k], a, b, cur[k + 1]))
        else:
            crossings.append((cur[k + 1], cur[k], a, b))
        cur[k], cur[k + 1] = a, b
    return PDCode(crossings)


def mirror(pd):
    """The mirror diagram: every crossing's over/under strands swap.

    The mirrored tuple is rotated to start at the new incoming
    under-strand, which is the old incoming over-strand.
    """
    crossings = []
    for (a, b, c, d), from_3 in zip(pd.crossings, pd.over_from_3):
        if from_3:
            crossings.append((d, a, b, c))
        else:
            crossings.append((b, c, d, a))
    return PDCode(crossings)


@dataclass(frozen=True)
class State:
    assignment: tuple  # 0/1 per crossing, indexed by PD position

    def __post_init__(self):
        object.__setattr__(self, "assignment", tuple(self.assignment))
        for s in self.assignment:  # as PD labels, no bool and no 1.0
            if type(s) is not int or not 0 <= s <= 1:
                raise InvalidDiagram("state entry %r is not 0 or 1" % (s,))


@dataclass(frozen=True)
class SmoothingResult:
    circle_count: int
    membership: dict  # arc -> circle id (smallest arc in the circle)


def smooth_state(pd, state):
    """Circles of the complete smoothing selected by ``state``."""
    if pd.n == 0:
        return SmoothingResult(1, {})
    if len(state.assignment) != pd.n:
        raise InvalidDiagram("state length does not match crossing count")
    parent = {a: a for a in pd.arcs()}
    for (a, b, c, d), s in zip(pd.crossings, state.assignment):
        for u, v in ((a, b), (c, d)) if s == 0 else ((a, d), (b, c)):
            u, v = _find(parent, u), _find(parent, v)
            parent[max(u, v)] = min(u, v)
    membership = {a: _find(parent, a) for a in parent}
    return SmoothingResult(len(set(membership.values())), membership)


def _smoothings(pd):
    """The circles of all 2^n smoothings, from one depth-first walk.

    Returns ``(arcs, members)``: the arc labels in ascending order, and
    per state, in binary order (crossing j is bit j of the mask), the
    circle id of each arc in that order -- the smallest arc label of its
    circle, as in :func:`smooth_state`.  The walk decides the highest
    crossing first; each branch copies its parent's union-find, a flat
    list over arc positions, and adds that crossing's two unions, so a
    state costs two unions rather than one per crossing.
    """
    arcs = sorted(pd.arcs())
    pos = {a: k for k, a in enumerate(arcs)}
    # per crossing, the arc positions each smoothing joins: 0 and 1
    joins = [((pos[a], pos[b], pos[c], pos[d]), (pos[a], pos[d], pos[b], pos[c]))
             for a, b, c, d in pd.crossings]
    members = []
    # an explicit stack, the 0-branch on top: a recursive closure would be
    # a reference cycle, keeping every state alive until the cycle
    # collector runs
    stack = [(pd.n - 1, list(range(len(arcs))))]
    while stack:
        j, parent = stack.pop()
        if j < 0:
            # a root is the smallest position of its tree, so parent[x] <= x
            # and one ascending pass points every arc at its root
            for x in range(len(parent)):
                parent[x] = parent[parent[x]]
            members.append(tuple([arcs[r] for r in parent]))
            continue
        for joined in reversed(joins[j]):
            branch = parent.copy()
            for u, v in (joined[:2], joined[2:]):
                u, v = _find(branch, u), _find(branch, v)
                # the smaller position, so the smaller label, is the root
                if u < v:
                    branch[v] = u
                elif v < u:
                    branch[u] = v
            stack.append((j - 1, branch))
    return tuple(arcs), members


def _find(parent, x):
    while parent[x] != x:
        parent[x] = x = parent[parent[x]]
    return x


def oriented_state(pd):
    """The orientation-respecting state: 0 at positive, 1 at negative."""
    return State(tuple(0 if o else 1 for o in pd.over_from_3))


# -- diagram regions (used to pick valid R2 sites) ----------------------


def regions(pd):
    """Faces of the underlying 4-valent planar graph.

    Each region is a list of ports (crossing, slot); walking a region
    leaves a crossing through a port's arc and re-enters at the arc's
    other endpoint, turning one slot counterclockwise.
    """
    return [[divmod(p, 4) for p in walk] for walk in _faces(pd.far)]


def reidemeister_move(pd, move, site=None):
    """Insert an R1 kink or an R2 clasp.

    * ``move="R1+"`` / ``"R1-"``: ``site`` is an arc label (or None on
      the empty diagram); adds one positive / negative crossing.
    * ``move="R2"``: ``site`` is a pair of ports ((ci, si), (cj, sj))
      bounding one region, as produced by :func:`r2_sites`; adds two
      crossings of opposite sign.
    """
    if move in ("R1+", "R1-"):
        return _r1(pd, move == "R1+", site)
    if move == "R2":
        return _r2(pd, site)
    raise InvalidSite("unknown move %r" % move)


def _fresh_labels(pd, count):
    start = max(pd.arcs(), default=0) + 1
    return list(range(start, start + count))


def _r1(pd, positive, arc):
    if pd.n == 0:
        if positive:
            return PDCode(((1, 1, 2, 2),))
        return PDCode(((1, 2, 2, 1),))
    # a tuple test, so that an unhashable site is missing, not a TypeError
    if not any(arc in c for c in pd.crossings):
        raise InvalidSite("no arc %r in diagram" % arc)
    ci, si = _head(pd, arc)
    y, z = _fresh_labels(pd, 2)
    crossings = [list(c) for c in pd.crossings]
    crossings[ci][si] = z
    if positive:
        crossings.append((arc, z, y, y))
    else:
        crossings.append((arc, y, y, z))
    return PDCode(crossings)


def r2_sites(pd):
    """All (port, port) pairs on a common region with distinct arcs."""
    out = []
    for walk in regions(pd):
        for i in range(len(walk)):
            for j in range(i + 1, len(walk)):
                (ci, si), (cj, sj) = walk[i], walk[j]
                if pd.crossings[ci][si] != pd.crossings[cj][sj]:
                    out.append((walk[i], walk[j]))
    return out


def _head(pd, arc):
    """The port (crossing, slot) where ``arc`` flows into its crossing."""
    over = pd.over_from_3
    port = [a for c in pd.crossings for a in c].index(arc)
    ci, si = divmod(port, 4)
    if si == 0 or (si == 3 and over[ci]) or (si == 1 and not over[ci]):
        return ci, si
    return divmod(pd.far[port], 4)  # a traced arc has one head and one tail


def _r2(pd, site):
    if pd.n == 0:
        raise InvalidSite("R2 needs two arcs")
    try:
        px, py = site
    except (TypeError, ValueError):
        raise InvalidSite("R2 site must be a pair of ports") from None
    if not any(px in walk and py in walk for walk in regions(pd)):
        raise InvalidSite("ports do not bound a common region")
    x = pd.crossings[px[0]][px[1]]
    y = pd.crossings[py[0]][py[1]]
    if x == y:
        raise InvalidSite("R2 needs two distinct arcs")

    hx = _head(pd, x)
    hy = _head(pd, y)
    # Walking the region, a port with the arc flowing away from its
    # crossing (any port but the arc's head) is traversed with the
    # strand; the two segments run strand-parallel exactly when their
    # walk parities differ.
    dir_x = px != hx
    dir_y = py != hy
    m, m2, x2, y2 = _fresh_labels(pd, 4)
    crossings = [list(c) for c in pd.crossings]
    crossings[hx[0]][hx[1]] = x2
    crossings[hy[0]][hy[1]] = y2
    if dir_x != dir_y:
        # strand-parallel segments: x under, y over both times;
        # lower crossing negative, upper positive.
        k1 = (x, y, m, m2)
        k2 = (m, y2, x2, m2)
    else:
        # anti-parallel segments
        k1 = (x, y2, m, m2)
        k2 = (m, y, x2, m2)
    if not dir_x:
        # the walk runs against x, so the region lies on the other side
        # of x: the clasp is drawn reflected, each crossing read the
        # other way round from its incoming under-strand
        k1 = (k1[0], k1[3], k1[2], k1[1])
        k2 = (k2[0], k2[3], k2[2], k2[1])
    crossings.append(k1)
    crossings.append(k2)
    return PDCode(crossings)
