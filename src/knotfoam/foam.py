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

Proper colorings are the base coloring of a breadth-first walk with
any set of blue components flipped, and chi(S1), n12 and the blue
monomial each split over the components (every binding's blue pages lie
in one).  So the sum over the 2^k colorings is a product of k factors:

    sign * prod_j (X1^a_j * X2^b_j + eps_j * X1^b_j * X2^a_j)

where sign is the base coloring's sign, a_j and b_j are the dots of
component j's facets colored 1 and 2 in the base, and eps_j is the sign
that flipping component j alone multiplies in (Robert and Wagner,
arXiv:1702.04140).  The evaluation never lists the colorings.  chi(S1)
must still be even on every coloring; it is exactly when it is on the
base and on each single flip, and the first odd coloring in the order
of :func:`enumerate_colorings` is one of those, so checking them in that
order raises the same OddEuler message as the term-by-term sum.

The red weights do not depend on the coloring, so their product R is
shared by every term and applied once: the evaluation is (blue
product) / (X1 - X2)^(chi(Sb)/2) * R.  Dividing before multiplying by R
is exact: X1 - X2 is prime in Z[X1, X2] and divides neither X1 + X2 nor
X1 * X2, so it divides the blue product times R as often as it divides
the blue product, and a non-exact division fails on the same foams
either way.

A foam checks itself once, when it is built, and raises MalformedFoam
if it is not well formed; it then carries its free boundary and the
facets of each binding's blue pages.  The evaluation runs in two parts.
The first reads no dots: it walks the blue pages once, checks the
parity of chi(S1) and chi(Sb), and keeps the base sign and, per blue
component, its facets colored 1 and 2 in the base and its eps.  The
second takes the facet dots and runs on one row of ints.  The blue
product is homogeneous of the degree D of all blue dots: a row of D + 1
coefficients, each factor a two-entry convolution.  Dividing it by
X1 - X2 takes running sums, a power of X1 + X2 or X1 - X2 convolves it
with a binomial row, and (X1*X2)^squares shifts both exponents.  The
relation harness closes every term with disk caps in (max_dots + 1)^m
ways, m the number of free circles.  A cap erases its circle and adds
its dots to the facet.  Every closure of a term erases the same circles
and keeps every genus and binding, so the closures differ only in dots
and share their components, signs and Euler characteristics.  The
harness therefore runs the first part once per term, on its undotted
closure, and the second part for each closure.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from numbers import Real

from .errors import MalformedFoam, NonBipartiteBinding, NonExactDivision, OddEuler
from .polyring import IntPoly2

BLUE = "blue"
RED = "red"


@dataclass(frozen=True, slots=True)
class Facet:
    id: str
    color: str
    genus: int = 0  # a multiple of 1/2; chi = 2 - 2 genus - len(slots)
    dots: int = 0
    squares: int = 0
    slots: tuple = ()

    def __post_init__(self):
        if type(self.slots) is str:
            raise MalformedFoam("facet %r: slots must be a tuple of names, not "
                                "the string %r" % (self.id, self.slots))
        object.__setattr__(self, "slots", tuple(self.slots))


@dataclass(frozen=True, slots=True)
class Binding:
    id: str
    blue_pages: tuple  # ordered pair of slot ids on blue facets
    red_page: str      # slot id on a red facet

    def __post_init__(self):
        if type(self.blue_pages) is str:
            raise MalformedFoam("binding %r: blue_pages must be a pair of names, "
                                "not the string %r" % (self.id, self.blue_pages))
        object.__setattr__(self, "blue_pages", tuple(self.blue_pages))


@dataclass(frozen=True, slots=True)
class Foam:
    """A foam; closed when every slot is attached to a binding.

    Building one checks its structure and raises MalformedFoam on the
    first fault.  Free slots (the ``free_boundary``) are plain blue or
    red circles.
    """

    facets: tuple = ()
    bindings: tuple = ()
    # the (slot, color) pairs attached to no binding, in facet order
    free_boundary: tuple = field(init=False, compare=False, repr=False)
    # per binding, the ids of the facets of its first and second blue page
    pages: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "facets", tuple(self.facets))
        object.__setattr__(self, "bindings", tuple(self.bindings))
        seen_ids = set()
        owners = {}
        # names are hashed and sorted together, so all must be strings
        for f in self.facets:
            if type(f.id) is not str:
                raise MalformedFoam("facet id %r is not a string" % (f.id,))
            if f.id in seen_ids:
                raise MalformedFoam("duplicate facet id %r" % f.id)
            seen_ids.add(f.id)
            if f.color not in (BLUE, RED):
                raise MalformedFoam("facet %r has unknown color %r" % (f.id, f.color))
            # bool is an int subclass, and not a number here
            if type(f.dots) is not int or type(f.squares) is not int:
                raise MalformedFoam("facet %r: %s must be an integer" % (
                    f.id, "dots" if type(f.dots) is not int else "squares"))
            if type(f.genus) is not int and (isinstance(f.genus, bool)
                                             or not isinstance(f.genus, Real)):
                raise MalformedFoam("facet %r: genus must be a number" % f.id)
            if f.genus < 0 or f.dots < 0 or f.squares < 0:
                raise MalformedFoam("facet %r has negative decoration data" % f.id)
            if 2 * f.genus % 1:
                raise MalformedFoam("facet %r has genus %r, not a multiple of 1/2"
                                    % (f.id, f.genus))
            if f.color == BLUE and f.squares:
                raise MalformedFoam("facet %r is blue but carries squares" % f.id)
            for s in f.slots:
                if type(s) is not str:
                    raise MalformedFoam("facet %r: slot %r is not a string" % (f.id, s))
                if s in owners:
                    raise MalformedFoam("slot %r appears on two facets" % s)
                owners[s] = f

        used = set()
        binding_ids = set()
        for b in self.bindings:
            if type(b.id) is not str or type(b.red_page) is not str:
                raise MalformedFoam("binding %r: names must be strings" % (b.id,))
            if b.id in binding_ids:
                raise MalformedFoam("duplicate binding id %r" % b.id)
            binding_ids.add(b.id)
            if len(b.blue_pages) != 2:
                raise MalformedFoam("binding %r needs exactly two blue pages" % b.id)
            for s in b.blue_pages:
                if type(s) is not str:
                    raise MalformedFoam("binding %r: names must be strings" % (b.id,))
                if s not in owners:
                    raise MalformedFoam("binding %r references missing slot %r"
                                        % (b.id, s))
                if owners[s].color != BLUE:
                    raise MalformedFoam("binding %r blue page %r is on a red facet"
                                        % (b.id, s))
            if b.red_page not in owners:
                raise MalformedFoam("binding %r references missing slot %r"
                                    % (b.id, b.red_page))
            if owners[b.red_page].color != RED:
                raise MalformedFoam("binding %r red page %r is on a blue facet"
                                    % (b.id, b.red_page))
            # the red page is on a red facet, so only the blue pages can repeat
            if b.blue_pages[0] == b.blue_pages[1]:
                raise MalformedFoam("binding %r lists slot %r twice"
                                    % (b.id, b.blue_pages[0]))
            for s in (*b.blue_pages, b.red_page):
                if s in used:
                    raise MalformedFoam("slot %r attached to two bindings" % s)
                used.add(s)
        object.__setattr__(self, "free_boundary", tuple(
            (s, f.color) for f in self.facets for s in f.slots if s not in used))
        object.__setattr__(self, "pages", tuple(
            (owners[b.blue_pages[0]].id, owners[b.blue_pages[1]].id)
            for b in self.bindings))


def _blue_walk(foam):
    """Breadth-first 2-coloring of the blue facets, component by component.

    Each walk starts at the smallest unvisited id with color 1 and visits
    neighbours in id order, so the components are numbered by their
    smallest ids.  Returns ``(base, k)``: per blue facet id, the index of
    its component and its color, and the number k of components.  Raises
    NonBipartiteBinding when a binding has both blue pages on one facet,
    or at the first pair of adjacent facets that get the same color.
    """
    for b, (u, v) in zip(foam.bindings, foam.pages):
        if u == v:
            raise NonBipartiteBinding(
                "binding %r has both blue pages on facet %r" % (b.id, u)
            )
    adj = {f.id: [] for f in foam.facets if f.color == BLUE}
    for u, v in foam.pages:
        adj[u].append(v)
        adj[v].append(u)
    base = {}
    k = 0
    for root in sorted(adj):
        if root in base:
            continue
        base[root] = (k, 1)
        queue = [root]
        for cur in queue:  # the queue grows as the walk goes
            want = 3 - base[cur][1]
            for nxt in sorted(adj[cur]):
                have = base.get(nxt)
                if have is None:
                    base[nxt] = (k, want)
                    queue.append(nxt)
                elif have[1] != want:
                    raise NonBipartiteBinding(
                        "facets %r and %r force conflicting colors" % (cur, nxt)
                    )
        k += 1
    return base, k


def enumerate_colorings(foam):
    """All proper {1,2}-colorings of the blue facets, deterministically.

    There are exactly 2**k of them, where k is the number of blue
    components: each component is 2-colored once by breadth-first
    propagation and then flipped independently, so that bit j of a
    coloring's index says whether component j is flipped.  Raises
    NonBipartiteBinding when propagation hits a contradiction.  The
    evaluation does not call this: it takes the sum over the colorings
    as a product over the components.
    """
    base, k = _blue_walk(foam)
    return [{fid: 3 - c if flips >> j & 1 else c for fid, (j, c) in base.items()}
            for flips in range(2 ** k)]


def _even_euler(which, total):
    if total % 2:
        raise OddEuler("chi(%s) = %d is odd" % (which, total))


def _colorings(foam):
    """The part of the evaluation that reads no dots.

    Requires a closed foam and walks its blue pages once.  Returns
    ``(sign, factors, half_chi_b, reds, red_squares)``: the sign of the
    base coloring; per blue component ``(ones, twos, eps)``, the indices
    of its facets colored 1 and 2 in the base and its eps; chi(Sb)/2; the
    indices of the red facets; and their squares in all.  Indices are
    positions in ``foam.facets``.

    Flipping component j alone adds c'_j - c_j to chi(S1), the Euler
    characteristics of its facets colored 2 and 1 in the base, and turns
    each of its m_j bindings from (1, 2) to (2, 1) or back, so
    eps_j = (-1)^((c'_j - c_j)/2 + m_j).  A coloring that flips several
    components adds all their c'_j - c_j.  In the order of
    :func:`enumerate_colorings` the flip of component j alone comes after
    every coloring of components 0..j-1 only, so the first coloring with
    odd chi(S1) is the base or a single flip.  The checks run as the
    term-by-term sum's do: chi(S1) on the base, chi(Sb), then each single
    flip in component order, so OddEuler carries the same message.
    """
    if foam.free_boundary:
        raise MalformedFoam("cannot evaluate a foam with free boundary")
    base, k = _blue_walk(foam)
    sides = [([], []) for _ in range(k)]  # facets colored 1 and 2 in the base
    chis = [[0, 0] for _ in range(k)]     # and the sums of their euler
    bindings = [0] * k
    reds = []
    chi1 = chi_b = red_squares = 0
    for i, f in enumerate(foam.facets):
        euler = 2 - int(2 * f.genus) - len(f.slots)  # chi of the facet
        if f.color == BLUE:
            j, c = base[f.id]
            sides[j][c - 1].append(i)
            chis[j][c - 1] += euler
            chi_b += euler
        else:
            reds.append(i)
            chi1 += euler
            red_squares += f.squares
    # the coloring is proper, so a first page colored 1 makes (1, 2)
    n12 = 0
    for u, _ in foam.pages:
        j, c = base[u]
        bindings[j] += 1
        if c == 1:
            n12 += 1
    for c, _ in chis:
        chi1 += c
    _even_euler("S1", chi1)
    _even_euler("Sb", chi_b)
    factors = []
    for (ones, twos), (c, flipped), m in zip(sides, chis, bindings):
        _even_euler("S1", chi1 - c + flipped)
        factors.append((ones, twos, -1 if ((flipped - c) // 2 + m) % 2 else 1))
    sign = -1 if (chi1 // 2 + n12) % 2 else 1
    return sign, factors, chi_b // 2, reds, red_squares


@functools.cache
def _binomial_row(m, sign):
    """The coefficients of (X1 + sign*X2)^m: comb(m, j) * sign^(m-j) at
    X1^j * X2^(m-j)."""
    return tuple(math.comb(m, j) * sign ** (m - j) for j in range(m + 1))


def _times_binomial(row, m, sign):
    """The row times (X1 + sign*X2)^m."""
    if not m:
        return row
    binomial = _binomial_row(m, sign)
    out = [0] * (len(row) + m)
    for a, c in enumerate(row):
        if c:
            for j, b in enumerate(binomial, a):
                out[j] += c * b
    return out


def _value(colorings, dots):
    """The value part of the evaluation, from :func:`_colorings` and the
    dots of each facet, in the order of ``foam.facets``.

    The blue sum is sign * prod_j (X1^a * X2^b + eps * X1^b * X2^a), a
    and b the dots of component j's facets colored 1 and 2 in the base.
    It is homogeneous of the blue degree D, so the arithmetic runs on
    one row of D + 1 ints, ``row[a]`` the coefficient of X1^a * X2^(D-a).
    """
    sign, factors, half_chi_b, reds, red_squares = colorings
    row = [sign]
    for ones, twos, eps in factors:
        a = b = 0
        for i in ones:
            a += dots[i]
        for i in twos:
            b += dots[i]
        if a == b and eps < 0:
            # a zero factor, and Z[X1, X2] has no zero divisors: the value
            # is zero whatever the division and the red decorations
            return IntPoly2.zero()
        out = [0] * (len(row) + a + b)
        for x, c in enumerate(row):
            out[x + a] += c
            out[x + b] += eps * c
        row = out
    red_dots = 0
    for i in reds:
        red_dots += dots[i]
    row = _times_binomial(row, max(-half_chi_b, 0), -1)
    for _ in range(half_chi_b):
        # (X1 - X2) * q has coefficient q[a-1] - q[a] at X1^a, so q[a-1]
        # is the sum of row[a:], and the sum of the whole row is the
        # remainder, at X2^degree
        sums = list(itertools.accumulate(reversed(row)))
        if sums[-1]:
            raise NonExactDivision(
                "remainder %s after division by (X1 - X2)"
                % IntPoly2({(0, len(row) - 1): sums[-1]}))
        row = sums[-2::-1]
    row = _times_binomial(row, red_dots, 1)
    top = len(row) - 1 + red_squares
    return IntPoly2._adopt({(a + red_squares, top - a): c
                            for a, c in enumerate(row) if c})


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
                Facet(f.id, f.color, f.genus, f.dots + extra, f.squares, kept)
            )
        else:
            new_facets.append(f)
    return Foam(new_facets, foam.bindings)


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


def _capped(foam):
    """The value of ``foam`` under disk caps, as a function of the cap dots.

    Runs the dots-free part of :func:`evaluate_foam` once, on the closure
    with undotted caps, so it raises what ``evaluate_foam(cap_closure(...))``
    raises on every closure.  The closures differ only in dot counts, so
    the returned function adds its caps' dots (in the order of the free
    boundary) to each facet and runs the value part alone.
    """
    colorings = _colorings(cap_closure(foam))
    position = {s: i for i, (s, _) in enumerate(foam.free_boundary)}
    caps = [(f.dots, [position[s] for s in f.slots if s in position])
            for f in foam.facets]

    def value(cap_dots):
        dots = [n + sum(cap_dots[i] for i in on) for n, on in caps]
        return _value(colorings, dots)

    return value


def _closure_value(combination, dots, capped):
    """Sum over the terms of coefficient times the value of the closure.

    ``capped`` holds, per term seen so far, its coefficient and its
    :func:`_capped` value function, both made at the term's first
    closure.  A constant coefficient is kept as an int, so it scales the
    value rather than multiplying it as a polynomial.
    """
    total = IntPoly2.zero()
    for k, (coeff, foam) in enumerate(combination.terms):
        if k == len(capped):
            terms = coeff.terms
            scale = terms[0, 0] if terms.keys() == {(0, 0)} else coeff
            capped.append((scale, _capped(foam)))
        scale, value = capped[k]
        total = total + scale * value(dots)
    return total


def _dot_tuples(max_dots, m):
    """Every m-tuple over 0..max_dots, in lexicographic order.

    The order is ``itertools.product``'s, but the tuples are made one at
    a time: ``product`` first stores ``range(max_dots + 1)`` as a tuple,
    which a large ``max_dots`` cannot fit in memory.
    """
    dots = [0] * m
    while True:
        yield tuple(dots)
        k = m - 1
        while k >= 0 and dots[k] == max_dots:
            dots[k] = 0
            k -= 1
        if k < 0:
            return
        dots[k] += 1


def verify_local_relation(lhs, rhs, max_dots=2):
    """Check an identity of foam combinations under every disk closure.

    Both sides are closed with disk caps carrying 0..max_dots dots in
    every combination, and the evaluations are compared exactly.
    Returns ``(True, None)`` on success and ``(False, witness)`` on the
    first disagreement, where the witness records the dot assignment and
    both values.  A negative ``max_dots`` would check no closure at all,
    and a non-integer one would never end, so both raise ValueError.
    """
    if type(max_dots) is not int:  # a float never equals the last count
        raise ValueError("max_dots must be an integer, got %r" % (max_dots,))
    if max_dots < 0:
        raise ValueError("max_dots must be at least 0, got %d" % max_dots)
    # a side with no terms has no signature and matches any other
    sigs = {lhs.signature(), rhs.signature()} - {None}
    if len(sigs) > 1:
        raise MalformedFoam("left and right boundary signatures differ")
    sig = sigs.pop() if sigs else ()
    capped_l = []
    capped_r = []
    for dots in _dot_tuples(max_dots, len(sig)):
        lv = _closure_value(lhs, dots, capped_l)
        rv = _closure_value(rhs, dots, capped_r)
        if lv != rv:
            return False, {"dots": dots, "lhs": lv, "rhs": rv}
    return True, None


# -- random foams -----------------------------------------------------


def random_closed_foam(rng):
    """A random valid closed foam, colorable by construction.

    It has 1-5 blue and 0-3 red facets, each of genus 0-2 with 0-3 dots
    (and 0-3 squares if red).  Bindings only join a blue facet of even
    index to one of odd index, which keeps the page-adjacency graph
    bipartite.  Binding j owns slots s3j, s3j+1 and s3j+2.
    """
    n_blue = rng.randint(1, 5)
    n_red = rng.randint(0, 3)
    n_bindings = rng.randint(0, 6)
    if n_bindings and n_red == 0:
        n_red = 1

    blue_ids = ["b%d" % i for i in range(n_blue)]
    red_ids = ["r%d" % i for i in range(n_red)]
    even = blue_ids[0::2]
    odd = blue_ids[1::2]

    slots = {fid: [] for fid in blue_ids + red_ids}
    bindings = []
    if odd:  # and so even, which holds b0
        for j in range(n_bindings):
            u = rng.choice(even)
            v = rng.choice(odd)
            r = rng.choice(red_ids)
            s1 = "s%d" % (3 * j)
            s2 = "s%d" % (3 * j + 1)
            s3 = "s%d" % (3 * j + 2)
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
                genus=rng.randint(0, 2),
                dots=rng.randint(0, 3),
                slots=slots[fid],
            )
        )
    for fid in red_ids:
        facets.append(
            Facet(
                fid,
                RED,
                genus=rng.randint(0, 2),
                dots=rng.randint(0, 3),
                squares=rng.randint(0, 3),
                slots=slots[fid],
            )
        )
    return Foam(facets, bindings)


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


def _json_list(value):
    """A JSON array as a tuple; a string is not split into characters."""
    if not isinstance(value, (list, tuple)):
        raise TypeError("expected a list, got %r" % (value,))
    return tuple(value)


def foam_from_json(data):
    try:
        facets = tuple(
            Facet(
                d["id"],
                d["color"],
                d.get("genus", 0),
                d.get("dots", 0),
                d.get("squares", 0),
                _json_list(d.get("slots", ())),
            )
            for d in data["facets"]
        )
        bindings = tuple(
            Binding(d["id"], _json_list(d["blue_pages"]), d["red_page"])
            for d in data.get("bindings", ())
        )
        declared = data.get("free_boundary")
        if declared is not None:
            declared = [(d["slot"], d["color"]) for d in declared]
    except (KeyError, TypeError) as exc:
        raise MalformedFoam("bad foam JSON: %s" % exc) from exc
    for f in facets:  # JSON has no half-integer genus; bool is an int subclass
        if type(f.genus) is not int:
            raise MalformedFoam("facet %r: genus must be an integer" % (f.id,))
    if not all(type(x) is str for pair in declared or () for x in pair):
        raise MalformedFoam("bad foam JSON: free-boundary entries must be strings")
    foam = Foam(facets, bindings)
    if declared is not None and sorted(declared) != sorted(foam.free_boundary):
        raise MalformedFoam("declared free boundary does not match structure")
    return foam
