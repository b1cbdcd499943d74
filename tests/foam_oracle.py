"""The evaluation of a closed foam, term by term, as the paper states it.

``evaluate_term_by_term`` sums one signed product of facet weights over
every coloring that ``enumerate_colorings`` lists, and divides the sum by
(X1 - X2)^(chi(Sb)/2) with ``bivariate_division``.  The tests check
``evaluate_foam``, which takes that sum as a product over the blue
components, against it: the same values, exception classes and messages.
``blue_components`` finds the components by a union-find of its own, so
the evaluation's component count can be checked without its walk.
"""

from bivariate_division import divide_by_difference_power
from knotfoam.errors import MalformedFoam, OddEuler
from knotfoam.foam import BLUE, RED, enumerate_colorings
from knotfoam.polyring import IntPoly2

SIGMA_1 = "S1"
SIGMA_B = "Sb"


def chi_subsurface(foam, coloring, which):
    """Euler characteristic of a colored subsurface of a closed foam.

    ``which`` is ``SIGMA_1`` (blue facets colored 1 plus all red facets)
    or ``SIGMA_B`` (all blue facets).  Binding circles contribute zero,
    so the value is the plain sum of facet Euler characteristics,
    2 - 2*genus - boundary circles; it is even for a valid closed foam,
    and an odd value raises OddEuler.
    """
    total = 0
    for f in foam.facets:
        if which == SIGMA_B:
            inside = f.color == BLUE
        elif which == SIGMA_1:
            inside = f.color == RED or coloring.get(f.id) == 1
        else:
            raise ValueError("unknown subsurface selector %r" % which)
        if inside:
            total += 2 - int(2 * f.genus) - len(f.slots)
    if total % 2:
        raise OddEuler("chi(%s) = %d is odd" % (which, total))
    return total


def count_n12(foam, coloring):
    """Number of bindings whose ordered blue pages are colored (1, 2)."""
    return sum(
        1
        for first, second in foam.pages
        if coloring[first] == 1 and coloring[second] == 2
    )


def blue_components(foam):
    """Connected components of the blue subsurface.

    Two blue facets are adjacent iff they are the two blue pages of some
    binding.  Returns a list of sorted facet-id lists, sorted by their
    smallest member, so the component count k is ``len(result)``.
    """
    parent = {f.id: f.id for f in foam.facets if f.color == BLUE}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for u, v in foam.pages:
        parent[find(u)] = find(v)
    groups = {}
    for fid in parent:
        groups.setdefault(find(fid), []).append(fid)
    return sorted(sorted(group) for group in groups.values())


def evaluate_term_by_term(foam):
    """For every coloring, the product of every facet's weight, signed by
    chi_subsurface and count_n12; then the whole sum divided by
    (X1 - X2)^(chi(Sb)/2)."""
    if foam.free_boundary:
        raise MalformedFoam("cannot evaluate a foam with free boundary")
    e = IntPoly2.x1_plus_x2()
    pi = IntPoly2.x1_times_x2()
    total = IntPoly2.zero()
    for coloring in enumerate_colorings(foam):
        chi1 = chi_subsurface(foam, coloring, SIGMA_1)
        chib = chi_subsurface(foam, coloring, SIGMA_B)
        sign = -1 if (chi1 // 2 + count_n12(foam, coloring)) % 2 else 1
        term = IntPoly2.constant(sign)
        for f in foam.facets:
            if f.color == BLUE:
                exp = (f.dots, 0) if coloring[f.id] == 1 else (0, f.dots)
                term = term * IntPoly2({exp: 1})
            else:
                term = term * e ** f.dots * pi ** f.squares
        total = total + term
    return divide_by_difference_power(total, chib // 2)
