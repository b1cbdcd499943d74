"""Decorated foams and their exact evaluation.

A foam is a purely combinatorial object here: facets colored blue or
red, each carrying a genus, a number of dots and (on red facets only) a
number of squares, glued along *bindings*.  A binding is a singular
circle with exactly three pages: an ordered pair of blue pages and one
red page.  Slots name the boundary circles of facets; a slot is either
attached to exactly one binding or left free, in which case the foam is
open.

The evaluation of a closed foam sums, over all colorings of the blue
facets by {1, 2} (proper across every binding), the terms

    (-1)^(chi(S1)/2) * (-1)^(n12) * prod_F P_F(X_c)

and divides the total exactly by (X1 - X2)^(chi(Sb)/2), where S1 is the
subsurface of facets carrying color 1 (blue colored 1, plus every red
facet), Sb is the full blue subsurface, n12 counts bindings whose
ordered blue pages are colored (1, 2), and P_F is X_c^dots on a blue
facet and (X1+X2)^dots * (X1*X2)^squares on a red one.  The result is a
symmetric polynomial with integer coefficients.

The red weights do not depend on the coloring, so their product R is
shared by every term and applied once: each coloring adds only a sign
to the monomial X1^a * X2^b of its blue dots, and the evaluation is
(sum of those signed monomials) / (X1 - X2)^(chi(Sb)/2) * R.  Dividing
before multiplying by R is exact: X1 - X2 is prime in Z[X1, X2] and
divides neither X1 + X2 nor X1 * X2, so it divides the blue sum times R
as often as it divides the blue sum, and a non-exact division fails on
the same foams either way.

The evaluation runs in two parts.  The first reads no dots: it
validates the foam, walks the blue pages, enumerates the colorings,
checks the parity of chi(S1) and chi(Sb), and keeps each coloring's
sign and the blue facets it colors 1.  The second takes the facet dots:
it sums the signed monomials, divides by (X1 - X2)^(chi(Sb)/2) and
multiplies by R.  The relation harness closes every term with disk caps
in (max_dots + 1)^m ways, m the number of free circles.  A cap erases
its circle and adds its dots to the facet.  Every closure of a term
erases the same circles and keeps every genus and binding, so the
closures differ only in dots and share their colorings, signs and Euler
characteristics.  The harness therefore runs the first part once per
term, at its first closure, and the second part for each closure.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .errors import MalformedFoam, NonBipartiteBinding, OddEuler
from .polyring import IntPoly2

BLUE = "blue"
RED = "red"


@dataclass(frozen=True, slots=True)
class Facet:
    id: str
    color: str
    genus: int = 0
    dots: int = 0
    squares: int = 0
    slots: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "slots", tuple(self.slots))

    @property
    def euler(self):
        """chi = 2 - 2*genus - number of boundary circles."""
        return 2 - 2 * self.genus - len(self.slots)


@dataclass(frozen=True, slots=True)
class Binding:
    id: str
    blue_pages: tuple  # ordered pair of slot ids on blue facets
    red_page: str      # slot id on a red facet

    def __post_init__(self):
        object.__setattr__(self, "blue_pages", tuple(self.blue_pages))


@dataclass(frozen=True, slots=True)
class Foam:
    """A foam; closed when every slot is attached to a binding.

    Free slots (the ``free_boundary``) are plain blue or red circles.
    """

    facets: tuple = ()
    bindings: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "facets", tuple(self.facets))
        object.__setattr__(self, "bindings", tuple(self.bindings))

    # -- lookup helpers -------------------------------------------------

    @property
    def free_boundary(self):
        """Ordered list of (slot, color) pairs not attached to any binding."""
        bound = set()
        for b in self.bindings:
            bound.update(b.blue_pages)
            bound.add(b.red_page)
        out = []
        for f in self.facets:
            for s in f.slots:
                if s not in bound:
                    out.append((s, f.color))
        return out

    @property
    def is_closed(self):
        return not self.free_boundary

    def blue_facets(self):
        return [f for f in self.facets if f.color == BLUE]

    def red_facets(self):
        return [f for f in self.facets if f.color == RED]


def validate_foam(foam):
    """Check all structural invariants; raises MalformedFoam on failure."""
    seen_ids = set()
    owners = {}
    for f in foam.facets:
        if f.id in seen_ids:
            raise MalformedFoam("duplicate facet id %r" % f.id)
        seen_ids.add(f.id)
        if f.color not in (BLUE, RED):
            raise MalformedFoam("facet %r has unknown color %r" % (f.id, f.color))
        if f.genus < 0 or f.dots < 0 or f.squares < 0:
            raise MalformedFoam("facet %r has negative decoration data" % f.id)
        if f.color == BLUE and f.squares:
            raise MalformedFoam("facet %r is blue but carries squares" % f.id)
        for s in f.slots:
            if s in owners:
                raise MalformedFoam("slot %r appears on two facets" % s)
            owners[s] = f

    used = set()
    binding_ids = set()
    for b in foam.bindings:
        if b.id in binding_ids:
            raise MalformedFoam("duplicate binding id %r" % b.id)
        binding_ids.add(b.id)
        if len(b.blue_pages) != 2:
            raise MalformedFoam("binding %r needs exactly two blue pages" % b.id)
        for s in b.blue_pages:
            if s not in owners:
                raise MalformedFoam("binding %r references missing slot %r" % (b.id, s))
            if owners[s].color != BLUE:
                raise MalformedFoam("binding %r blue page %r is on a red facet" % (b.id, s))
        if b.red_page not in owners:
            raise MalformedFoam("binding %r references missing slot %r" % (b.id, b.red_page))
        if owners[b.red_page].color != RED:
            raise MalformedFoam("binding %r red page %r is on a blue facet" % (b.id, b.red_page))
        for s in (*b.blue_pages, b.red_page):
            if s in used:
                raise MalformedFoam("slot %r attached to two bindings" % s)
            used.add(s)
    return foam


def _page_facets(foam):
    """The (first, second) blue-page facet ids of every binding, in order."""
    owner = {s: f.id for f in foam.facets for s in f.slots}
    return [(owner[b.blue_pages[0]], owner[b.blue_pages[1]]) for b in foam.bindings]


def blue_components(foam):
    """Connected components of the blue subsurface.

    Two blue facets are adjacent iff they are the two blue pages of some
    binding.  Returns a list of sorted facet-id lists, sorted by their
    smallest member, so the component count k is ``len(result)``.
    """
    return _blue_walk(foam, _page_facets(foam))[0]


def _blue_walk(foam, pages):
    """Breadth-first 2-coloring of the blue facets, component by component.

    Each walk starts at the smallest unvisited id with color 1 and visits
    neighbours in id order.  Returns ``(components, base, conflict)``: the
    components as in :func:`blue_components`, the color of every blue
    facet, and the first pair of adjacent facets that got the same color
    (None when there is none).
    """
    adj = {f.id: [] for f in foam.blue_facets()}
    for u, v in pages:
        adj[u].append(v)
        adj[v].append(u)
    components = []
    base = {}
    conflict = None
    for root in sorted(adj):
        if root in base:
            continue
        base[root] = 1
        comp = [root]
        for cur in comp:  # comp is the walk's queue and grows as it goes
            want = 3 - base[cur]
            for nxt in sorted(adj[cur]):
                if nxt not in base:
                    base[nxt] = want
                    comp.append(nxt)
                elif base[nxt] != want and conflict is None:
                    conflict = (cur, nxt)
        components.append(sorted(comp))
    return components, base, conflict


def enumerate_colorings(foam):
    """All proper {1,2}-colorings of the blue facets, deterministically.

    There are exactly 2**k of them, where k is the number of blue
    components: each component is 2-colored once by breadth-first
    propagation and then flipped independently.  Raises
    NonBipartiteBinding when propagation hits a contradiction.
    """
    pages = _page_facets(foam)
    for b, (u, v) in zip(foam.bindings, pages):
        if u == v:
            raise NonBipartiteBinding(
                "binding %r has both blue pages on facet %r" % (b.id, u)
            )
    components, base, conflict = _blue_walk(foam, pages)
    if conflict:
        raise NonBipartiteBinding(
            "facets %r and %r force conflicting colors" % conflict
        )

    colorings = []
    k = len(components)
    for mask in range(2 ** k):
        assignment = {}
        for i, comp in enumerate(components):
            flip = (mask >> i) & 1
            for fid in comp:
                c = base[fid]
                assignment[fid] = (3 - c) if flip else c
        colorings.append(assignment)
    return colorings


SIGMA_1 = "S1"
SIGMA_B = "Sb"


def _even_euler(which, total):
    if total % 2:
        raise OddEuler("chi(%s) = %d is odd" % (which, total))
    return total


def chi_subsurface(foam, coloring, which):
    """Euler characteristic of a colored subsurface of a closed foam.

    ``which`` is ``SIGMA_1`` (blue facets colored 1 plus all red facets)
    or ``SIGMA_B`` (all blue facets).  Binding circles contribute zero,
    so the value is the plain sum of facet Euler characteristics; it is
    always even for a valid closed foam.
    """
    total = 0
    for f in foam.facets:
        if which == SIGMA_B:
            if f.color == BLUE:
                total += f.euler
        elif which == SIGMA_1:
            if f.color == RED or coloring.get(f.id) == 1:
                total += f.euler
        else:
            raise ValueError("unknown subsurface selector %r" % which)
    return _even_euler(which, total)


def count_n12(foam, coloring):
    """Number of bindings whose ordered blue pages are colored (1, 2)."""
    return sum(
        1
        for first, second in _page_facets(foam)
        if coloring[first] == 1 and coloring[second] == 2
    )


def _red_factor(dots, squares):
    """(X1 + X2)^dots * (X1*X2)^squares, expanded binomially."""
    return IntPoly2(
        {(k + squares, dots - k + squares): math.comb(dots, k) for k in range(dots + 1)}
    )


def _colorings(foam):
    """The part of the evaluation that reads no dots.

    Validates the closed foam, enumerates its colorings and checks that
    chi(S1) is even on each and chi(Sb) after the first chi(S1), the
    order of the term-by-term formula, so a bad foam fails with the same
    message.  Returns ``(terms, half_chi_b, reds, red_squares)``: per
    coloring its sign and the indices of the blue facets it colors 1;
    chi(Sb)/2; the indices of the red facets; and their squares in all.
    Indices are positions in ``foam.facets``.
    """
    validate_foam(foam)
    if not foam.is_closed:
        raise MalformedFoam("cannot evaluate a foam with free boundary")
    pages = _page_facets(foam)
    blue = []
    reds = []
    chi_red = chi_b = red_squares = 0
    for i, f in enumerate(foam.facets):
        if f.color == BLUE:
            blue.append((i, f.id, f.euler))
            chi_b += f.euler
        else:
            reds.append(i)
            chi_red += f.euler
            red_squares += f.squares
    terms = []
    for coloring in enumerate_colorings(foam):
        chi1 = chi_red
        ones = []
        for i, fid, euler in blue:
            if coloring[fid] == 1:
                chi1 += euler
                ones.append(i)
        _even_euler(SIGMA_1, chi1)
        if not terms:  # chi(Sb) is the same for every coloring
            _even_euler(SIGMA_B, chi_b)
        n12 = 0
        for u, v in pages:
            if coloring[u] == 1 and coloring[v] == 2:
                n12 += 1
        terms.append((-1 if (chi1 // 2 + n12) % 2 else 1, ones))
    return terms, chi_b // 2, reds, red_squares


def _value(colorings, dots):
    """The value part of the evaluation, from :func:`_colorings` and the
    dots of each facet, in the order of ``foam.facets``."""
    terms, half_chi_b, reds, red_squares = colorings
    red_dots = 0
    for i in reds:
        red_dots += dots[i]
    blue_dots = sum(dots) - red_dots
    # signed monomials X1^a * X2^b of the blue dots, as {(a, b): coefficient}
    blue_sum = {}
    for sign, ones in terms:
        a = 0
        for i in ones:
            a += dots[i]
        blue_sum[a, blue_dots - a] = blue_sum.get((a, blue_dots - a), 0) + sign
    quotient = IntPoly2(blue_sum).divide_by_difference_power(half_chi_b)
    if not quotient:
        # zero whatever the red decorations; (X1 + X2)^dots alone has
        # dots + 1 terms
        return quotient
    return quotient * _red_factor(red_dots, red_squares)


def evaluate_foam(foam):
    """Evaluate a closed foam to an element of Z[X1, X2]."""
    return _value(_colorings(foam), [f.dots for f in foam.facets])


def cap_closure(foam, caps=None):
    """Close every free slot with a disk cap carrying the given dots.

    ``caps`` maps free slot ids to dot counts (0..max_dots in the
    relation harness); missing slots get undotted caps.  Gluing a disk
    along a boundary circle simply erases that circle and transfers the
    disk's dots onto the facet, so caps are absorbed rather than stored
    as separate facets; the evaluation cannot tell the difference.
    """
    caps = dict(caps or {})
    free = dict(foam.free_boundary)
    for slot in caps:
        if slot not in free:
            raise MalformedFoam("cap assigned to non-free slot %r" % slot)
    new_facets = []
    for f in foam.facets:
        extra = 0
        kept = []
        for s in f.slots:
            if s in free:
                extra += caps.get(s, 0)
            else:
                kept.append(s)
        if extra or len(kept) != len(f.slots):
            new_facets.append(
                Facet(f.id, f.color, f.genus, f.dots + extra, f.squares, tuple(kept))
            )
        else:
            new_facets.append(f)
    closed = Foam(tuple(new_facets), foam.bindings)
    return validate_foam(closed)


@dataclass(frozen=True)
class FoamCombination:
    """A formal Z[X1,X2]-linear combination of open foams.

    All terms must present the same free-boundary color sequence; the
    i-th free slot of every term is glued to the same cap during
    closure.
    """

    terms: tuple = ()
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))

    def signature(self):
        sigs = {tuple(color for _, color in f.free_boundary) for _, f in self.terms}
        if len(sigs) > 1:
            raise MalformedFoam("terms of %r have mismatched boundaries" % self.name)
        return sigs.pop() if sigs else None


def _capped(foam, dots):
    """The value of ``foam`` under disk caps, as a function of the cap dots.

    Runs the dots-free part of :func:`evaluate_foam` once, on the closure
    with ``dots`` (in the order of the free boundary), so it raises what
    ``evaluate_foam(cap_closure(...))`` raises there.  Every other
    closure differs only in dot counts, so the returned function adds
    its caps' dots to each facet and runs the value part alone.
    """
    slots = [s for s, _ in foam.free_boundary]
    colorings = _colorings(cap_closure(foam, dict(zip(slots, dots))))
    position = {s: i for i, s in enumerate(slots)}
    caps = [(f.dots, [position[s] for s in f.slots if s in position])
            for f in foam.facets]

    def value(cap_dots):
        dots = [n + sum(cap_dots[i] for i in on) for n, on in caps]
        return _value(colorings, dots)

    return value


def _closure_value(combination, dots, capped):
    """Sum over the terms of coefficient times the value of the closure.

    ``capped`` holds one :func:`_capped` value function per term seen so
    far; a term's function is made at its first closure.
    """
    total = IntPoly2.zero()
    for k, (coeff, foam) in enumerate(combination.terms):
        if k == len(capped):
            capped.append(_capped(foam, dots))
        total = total + coeff * capped[k](dots)
    return total


def verify_local_relation(lhs, rhs, max_dots=2):
    """Check an identity of foam combinations under every disk closure.

    Both sides are closed with disk caps carrying 0..max_dots dots in
    every combination, and the evaluations are compared exactly.
    Returns ``(True, None)`` on success and ``(False, witness)`` on the
    first disagreement, where the witness records the dot assignment and
    both values.  A negative ``max_dots`` would check no closure at all,
    so it raises ValueError.
    """
    if max_dots < 0:
        raise ValueError("max_dots must be at least 0, got %d" % max_dots)
    sig_l = lhs.signature()
    sig_r = rhs.signature()
    if sig_l is None and sig_r is None:
        sig = ()
    elif sig_l is None:
        sig = sig_r
    elif sig_r is None:
        sig = sig_l
    elif sig_l != sig_r:
        raise MalformedFoam("left and right boundary signatures differ")
    else:
        sig = sig_l
    capped_l = []
    capped_r = []
    for dots in itertools.product(range(max_dots + 1), repeat=len(sig)):
        lv = _closure_value(lhs, dots, capped_l)
        rv = _closure_value(rhs, dots, capped_r)
        if lv != rv:
            return False, {"dots": dots, "lhs": lv, "rhs": rv}
    return True, None


# -- random foams -----------------------------------------------------


def random_closed_foam(rng, max_facets=8, max_genus=2, max_decoration=3):
    """A random valid closed foam, colorable by construction.

    Blue facets receive a fixed parity bit and bindings only join blue
    facets of opposite parity, which keeps the page-adjacency graph
    bipartite.
    """
    n_blue = rng.randint(1, min(5, max_facets - 1))
    n_red = rng.randint(0, max(0, min(3, max_facets - n_blue)))
    n_bindings = rng.randint(0, 6)
    if n_bindings and n_red == 0:
        n_red = 1

    parity = {}
    blue_ids = []
    for i in range(n_blue):
        fid = "b%d" % i
        blue_ids.append(fid)
        parity[fid] = i % 2
    red_ids = ["r%d" % i for i in range(n_red)]

    even = [f for f in blue_ids if parity[f] == 0]
    odd = [f for f in blue_ids if parity[f] == 1]

    slots = {fid: [] for fid in blue_ids + red_ids}
    bindings = []
    counter = itertools.count()
    if even and odd:
        for j in range(n_bindings):
            u = rng.choice(even)
            v = rng.choice(odd)
            r = rng.choice(red_ids)
            s1 = "s%d" % next(counter)
            s2 = "s%d" % next(counter)
            s3 = "s%d" % next(counter)
            slots[u].append(s1)
            slots[v].append(s2)
            slots[r].append(s3)
            pages = (s1, s2) if rng.random() < 0.5 else (s2, s1)
            bindings.append(Binding("beta%d" % j, pages, s3))

    facets = []
    for fid in blue_ids:
        facets.append(
            Facet(
                fid,
                BLUE,
                genus=rng.randint(0, max_genus),
                dots=rng.randint(0, max_decoration),
                slots=tuple(slots[fid]),
            )
        )
    for fid in red_ids:
        facets.append(
            Facet(
                fid,
                RED,
                genus=rng.randint(0, max_genus),
                dots=rng.randint(0, max_decoration),
                squares=rng.randint(0, max_decoration),
                slots=tuple(slots[fid]),
            )
        )
    return validate_foam(Foam(tuple(facets), tuple(bindings)))


# -- JSON form --------------------------------------------------------


def foam_to_json(foam):
    return {
        "facets": [
            {
                "id": f.id,
                "color": f.color,
                "genus": f.genus,
                "dots": f.dots,
                "squares": f.squares,
                "slots": list(f.slots),
            }
            for f in foam.facets
        ],
        "bindings": [
            {"id": b.id, "blue_pages": list(b.blue_pages), "red_page": b.red_page}
            for b in foam.bindings
        ],
        "free_boundary": [
            {"slot": s, "color": c} for s, c in foam.free_boundary
        ],
    }


def foam_from_json(data):
    try:
        facets = tuple(
            Facet(
                d["id"],
                d["color"],
                d.get("genus", 0),
                d.get("dots", 0),
                d.get("squares", 0),
                tuple(d.get("slots", ())),
            )
            for d in data["facets"]
        )
        bindings = tuple(
            Binding(d["id"], tuple(d["blue_pages"]), d["red_page"])
            for d in data.get("bindings", ())
        )
        declared = data.get("free_boundary")
        if declared is not None:
            declared = [(d["slot"], d["color"]) for d in declared]
    except (KeyError, TypeError) as exc:
        raise MalformedFoam("bad foam JSON: %s" % exc) from exc
    # names are hashed and sorted together, so all must be strings
    names = [x for f in facets for x in (f.id, *f.slots)]
    names += [x for b in bindings for x in (b.id, *b.blue_pages, b.red_page)]
    names += [x for pair in declared or () for x in pair]
    if not all(type(x) is str for x in names):
        raise MalformedFoam("bad foam JSON: ids, slots, pages and free-boundary "
                            "entries must be strings")
    for f in facets:
        for name in ("genus", "dots", "squares"):
            if type(getattr(f, name)) is not int:  # bool is an int subclass
                raise MalformedFoam("facet %r: %s must be an integer"
                                    % (f.id, name))
    foam = validate_foam(Foam(facets, bindings))
    if declared is not None and sorted(declared) != sorted(foam.free_boundary):
        raise MalformedFoam("declared free boundary does not match structure")
    return foam
