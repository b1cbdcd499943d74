"""Regenerate the relation fixture JSON files in src/knotfoam/fixtures/.

Each fixture is verified with the closure harness before being written.
Run from the repo root:  python3 scripts/build_fixtures.py
"""
import json
import os
import sys

sys.path.insert(0, "src")

from knotfoam.foam import (
    BLUE, RED, Binding, Facet, Foam, FoamCombination, foam_to_json,
    verify_local_relation,
)
from knotfoam.polyring import IntPoly2

ONE = IntPoly2.one()
E = IntPoly2.x1_plus_x2()
PI = IntPoly2.x1_times_x2()


def F(*facets, bindings=()):
    return Foam(tuple(facets), tuple(bindings))


def combo(*terms):
    return FoamCombination(tuple(terms))


def blue(fid, slots=(), dots=0, genus=0):
    return Facet(fid, BLUE, genus=genus, dots=dots, slots=tuple(slots))


def red(fid, slots=(), dots=0, squares=0, genus=0):
    return Facet(fid, RED, genus=genus, dots=dots, squares=squares,
                 slots=tuple(slots))


EMPTY = F()

fixtures = []


def add(name, description, lhs, rhs):
    fixtures.append((name, description, lhs, rhs))


# ---- sphere relations (closed, no boundary) --------------------------

add(
    "sphere-blue",
    "An undotted blue sphere evaluates to zero.",
    combo((ONE, F(blue("S")))),
    combo(),
)
add(
    "sphere-blue-dot",
    "A blue sphere with one dot evaluates to -1.",
    combo((ONE, F(blue("S", dots=1)))),
    combo((IntPoly2.constant(-1), EMPTY)),
)
add(
    "sphere-red",
    "A red sphere evaluates to -1.",
    combo((ONE, F(red("S")))),
    combo((IntPoly2.constant(-1), EMPTY)),
)

# ---- bubble relations ------------------------------------------------

# A pimple on a blue disk: the disk continues as an annulus A around the
# binding, the bubble cap is the blue disk T, and the flat membrane
# inside the bubble is the red disk M.  Page order (T, A) keeps the sign
# positive; the opposite order is the orientation-reversed variant.
def pimple(order):
    pages = ("t", "a_in") if order == "TA" else ("a_in", "t")
    return F(
        blue("A", slots=("a_in", "a_out")),
        blue("T", slots=("t",)),
        red("M", slots=("m",)),
        bindings=(Binding("beta", pages, "m"),),
    )


DISK_B = F(blue("D", slots=("h",)))
DISK_R = F(red("D", slots=("h",)))

add(
    "bubble-blue",
    "A blue disk with a pimple (bubble capped by a red membrane) equals "
    "the plain disk.  Facets: annulus A, bubble cap T, membrane M; one "
    "binding with pages (T, A).",
    combo((ONE, pimple("TA"))),
    combo((ONE, DISK_B)),
)
add(
    "bubble-blue-reversed",
    "The orientation-reversed pimple (pages (A, T)) equals minus the disk.",
    combo((ONE, pimple("AT"))),
    combo((IntPoly2.constant(-1), DISK_B)),
)


def saturn(dot_u=0, dot_l=0):
    return F(
        red("A", slots=("a_in", "a_out")),
        blue("U", slots=("u",), dots=dot_u),
        blue("L", slots=("l",), dots=dot_l),
        bindings=(Binding("beta", ("u", "l"), "a_in"),),
    )


add(
    "bubble-red",
    "A red disk with a blue bubble around its waist (two blue half-"
    "spheres U, L on one binding) evaluates to zero when undotted.",
    combo((ONE, saturn())),
    combo(),
)
add(
    "bubble-red-dot",
    "Dotting the second blue page of the waist bubble gives the plain "
    "red disk.",
    combo((ONE, saturn(dot_l=1))),
    combo((ONE, DISK_R)),
)
add(
    "bubble-red-dot-reversed",
    "Dotting the first blue page gives minus the red disk.",
    combo((ONE, saturn(dot_u=1))),
    combo((IntPoly2.constant(-1), DISK_R)),
)

# ---- bigon relation --------------------------------------------------

# Both sides closed over the theta graph and punctured once on each of
# the closure disks.  LHS: the theta foam.  RHS: two stacked thetas
# sharing one red annulus, with a dot on the bottom second page (plus
# term) or on the top first page (minus term).
THETA_PUNCT = F(
    blue("U", slots=("bu", "hU")),
    blue("L", slots=("bl", "hL")),
    red("R", slots=("br",)),
    bindings=(Binding("beta", ("bu", "bl"), "br"),),
)


def double_theta(dot_lb=0, dot_ut=0):
    return F(
        blue("Ub", slots=("b1u", "hU")),
        blue("Lb", slots=("b1l",), dots=dot_lb),
        blue("Ut", slots=("b2u",), dots=dot_ut),
        blue("Lt", slots=("b2l", "hL")),
        red("RA", slots=("r1", "r2")),
        bindings=(
            Binding("beta1", ("b1u", "b1l"), "r1"),
            Binding("beta2", ("b2u", "b2l"), "r2"),
        ),
    )


add(
    "bigon",
    "The identity over the bigon equals the difference of the two "
    "cup-cap composites, distinguished by the dot position.  Encoded "
    "closed over the theta graph: theta = stacked-theta(dot on lower "
    "second page) - stacked-theta(dot on upper first page).",
    combo((ONE, THETA_PUNCT)),
    combo((ONE, double_theta(dot_lb=1)), (IntPoly2.constant(-1), double_theta(dot_ut=1))),
)

# ---- neck cutting ----------------------------------------------------


def brcap(tip_dots):
    # blue cap pierced by a red membrane: annulus A (outer slot free),
    # tip T under the membrane M; pages ordered (A, T).
    return (
        blue("A2", slots=("na", "h2")),
        blue("T2", slots=("nt",), dots=tip_dots),
        red("M2", slots=("nm",)),
        Binding("nbeta", ("na", "nt"), "nm"),
    )


def cup_and_brcap(cup_dots, tip_dots):
    a2, t2, m2, b = brcap(tip_dots)
    return F(blue("C1", slots=("h1",), dots=cup_dots), a2, t2, m2, bindings=(b,))


add(
    "blue-neck-cutting",
    "A blue cylinder equals (dotted cup over membrane cap) minus (cup "
    "over dotted-tip membrane cap).",
    combo((ONE, F(blue("C", slots=("h1", "h2"))))),
    combo((ONE, cup_and_brcap(1, 0)), (IntPoly2.constant(-1), cup_and_brcap(0, 1))),
)
add(
    "red-neck-cutting",
    "A red cylinder equals minus a red cup over a red cap.",
    combo((ONE, F(red("C", slots=("h1", "h2"))))),
    combo((IntPoly2.constant(-1), F(red("C1", slots=("h1",)), red("C2", slots=("h2",))))),
)

# ---- migration -------------------------------------------------------


def theta_dotted(dot_u=0, dot_l=0, dot_r=0):
    return F(
        blue("U", slots=("bu", "hU"), dots=dot_u),
        blue("L", slots=("bl", "hL"), dots=dot_l),
        red("R", slots=("br",), dots=dot_r),
        bindings=(Binding("beta", ("bu", "bl"), "br"),),
    )


add(
    "migration",
    "A dot on the red page of a binding equals the sum of a dot on "
    "either blue page (closed over the theta graph, punctured).",
    combo((ONE, theta_dotted(dot_r=1))),
    combo((ONE, theta_dotted(dot_u=1)), (ONE, theta_dotted(dot_l=1))),
)

# ---- action of decorations -------------------------------------------

add(
    "blue-dot-reduction",
    "Two dots on a blue sheet reduce: xx = (X1+X2) x - X1*X2.",
    combo((ONE, F(blue("D", slots=("h",), dots=2)))),
    combo((E, F(blue("D", slots=("h",), dots=1))), (-1 * PI, DISK_B)),
)
add(
    "red-dot-reduction",
    "One dot on a red sheet acts as multiplication by X1+X2.",
    combo((ONE, F(red("D", slots=("h",), dots=1)))),
    combo((E, DISK_R)),
)
add(
    "red-square-reduction",
    "One square on a red sheet acts as multiplication by X1*X2.",
    combo((ONE, F(red("D", slots=("h",), squares=1)))),
    combo((PI, DISK_R)),
)

# ---- tube relations --------------------------------------------------

add(
    "tube-blue-blue",
    "A tube joining two blue sheets through two singular rings (each "
    "ring carries an internal blue membrane disk) equals minus the two "
    "disjoint sheets.",
    combo(
        (
            ONE,
            F(
                blue("B1", slots=("g1b", "h1")),
                blue("B2", slots=("g2b", "h2")),
                blue("M1", slots=("g1m",)),
                blue("M2", slots=("g2m",)),
                red("RT", slots=("g1r", "g2r")),
                bindings=(
                    Binding("beta1", ("g1b", "g1m"), "g1r"),
                    Binding("beta2", ("g2b", "g2m"), "g2r"),
                ),
            ),
        )
    ),
    combo((IntPoly2.constant(-1), F(blue("B1", slots=("h1",)), blue("B2", slots=("h2",))))),
)


def red_blue_tube(order):
    pages = ("gb", "gm") if order == "BM" else ("gm", "gb")
    return F(
        blue("B", slots=("gb", "h1")),
        red("R", slots=("gr", "h2")),
        blue("M", slots=("gm",)),
        bindings=(Binding("beta", pages, "gr"),),
    )


RHS_RED_BLUE = F(blue("B1", slots=("h1",)), red("R1", slots=("h2",)))

add(
    "tube-red-blue",
    "A tube from a red sheet to a blue sheet (one singular ring with an "
    "internal blue membrane) equals the disjoint sheets.",
    combo((ONE, red_blue_tube("BM"))),
    combo((ONE, RHS_RED_BLUE)),
)
add(
    "tube-red-blue-reversed",
    "The orientation-reversed red-blue tube equals minus the sheets.",
    combo((ONE, red_blue_tube("MB"))),
    combo((IntPoly2.constant(-1), RHS_RED_BLUE)),
)

add(
    "tube-membrane-cylinder",
    "A blue cylinder with a red membrane across its waist equals (cup "
    "over dotted cap) minus (dotted cup over cap).",
    combo(
        (
            ONE,
            F(
                blue("CU", slots=("gu", "h1")),
                blue("CL", slots=("gl", "h2")),
                red("RM", slots=("gr",)),
                bindings=(Binding("beta", ("gu", "gl"), "gr"),),
            ),
        )
    ),
    combo(
        (ONE, F(blue("C1", slots=("h1",)), blue("C2", slots=("h2",), dots=1))),
        (IntPoly2.constant(-1), F(blue("C1", slots=("h1",), dots=1), blue("C2", slots=("h2",)))),
    ),
)

# ---- band relations --------------------------------------------------


def chain_theta(order2):
    pages2 = ("b2", "b2x") if order2 == "A3A2" else ("b2x", "b2")
    return F(
        blue("A1", slots=("b1", "h1")),
        blue("A2", slots=("b1x", "b2x", "h2")),
        blue("A3", slots=("b2",)),
        red("Rb", slots=("r1",)),
        red("Rt", slots=("r2",)),
        bindings=(
            Binding("beta1", ("b1", "b1x"), "r1"),
            Binding("beta2", pages2, "r2"),
        ),
    )


THETA_H12 = F(
    blue("U", slots=("bu", "h1")),
    blue("L", slots=("bl", "h2")),
    red("R", slots=("br",)),
    bindings=(Binding("beta", ("bu", "bl"), "br"),),
)

add(
    "band-cut",
    "Cutting the red band of a theta-shaped foam: the theta equals the "
    "chain of two bindings along one blue sphere with two red disks.",
    combo((ONE, THETA_H12)),
    combo((ONE, chain_theta("A3A2"))),
)
add(
    "band-cut-reversed",
    "The orientation-reversed band cut carries a minus sign.",
    combo((ONE, THETA_H12)),
    combo((IntPoly2.constant(-1), chain_theta("A2A3"))),
)

# ---- strand-through-tube relations -----------------------------------


def strand_through_tube(order2):
    pages2 = ("c2x", "c2") if order2 == "A2A3" else ("c2", "c2x")
    return F(
        blue("A1", slots=("c1", "h1")),
        blue("A2", slots=("c1x", "c2x")),
        blue("A3", slots=("c2", "h2")),
        red("RT", slots=("d1", "d2", "f1", "f2")),
        bindings=(
            Binding("beta1", ("c1", "c1x"), "d1"),
            Binding("beta2", pages2, "d2"),
        ),
    )


STRAND_AND_TUBE = F(
    blue("B", slots=("h1", "h2")),
    red("RA", slots=("f1", "f2")),
)

add(
    "strand-through-tube",
    "A blue strand piercing an open red tube twice equals the strand "
    "beside the tube.",
    combo((ONE, strand_through_tube("A2A3"))),
    combo((ONE, STRAND_AND_TUBE)),
)
add(
    "strand-through-tube-reversed",
    "With the red tube orientation reversed the sign flips.",
    combo((ONE, strand_through_tube("A3A2"))),
    combo((IntPoly2.constant(-1), STRAND_AND_TUBE)),
)

add(
    "two-strands-through-tube",
    "Two blue strands each piercing the red tube wall once equal minus "
    "the strands beside the tube.",
    combo(
        (
            ONE,
            F(
                blue("A1a", slots=("e1", "h1")),
                blue("A1b", slots=("e1x",)),
                blue("A2a", slots=("e2", "h2")),
                blue("A2b", slots=("e2x",)),
                red("RT", slots=("d1", "d2", "f1", "f2")),
                bindings=(
                    Binding("beta1", ("e1", "e1x"), "d1"),
                    Binding("beta2", ("e2x", "e2"), "d2"),
                ),
            ),
        )
    ),
    combo(
        (
            IntPoly2.constant(-1),
            F(
                blue("B1", slots=("h1",)),
                blue("B2", slots=("h2",)),
                red("RA", slots=("f1", "f2")),
            ),
        )
    ),
)


def coeff_json(p):
    return [[e1, e2, c] for (e1, e2), c in sorted(p.terms.items())]


def main():
    outdir = os.path.join("src", "knotfoam", "fixtures")
    os.makedirs(outdir, exist_ok=True)
    failures = 0
    for name, description, lhs, rhs in fixtures:
        ok, witness = verify_local_relation(lhs, rhs, max_dots=2)
        status = "ok" if ok else "FAIL %s" % (witness,)
        print("%-28s %s" % (name, status))
        if not ok:
            failures += 1
            continue
        data = {
            "name": name,
            "description": description,
            "lhs": [
                {"coeff": coeff_json(c), "foam": foam_to_json(f)} for c, f in lhs.terms
            ],
            "rhs": [
                {"coeff": coeff_json(c), "foam": foam_to_json(f)} for c, f in rhs.terms
            ],
        }
        with open(os.path.join(outdir, name + ".json"), "w") as fh:
            json.dump(data, fh, indent=1, sort_keys=True)
            fh.write("\n")
    if failures:
        raise SystemExit("%d fixtures failed" % failures)
    print("wrote %d fixtures" % len(fixtures))


if __name__ == "__main__":
    main()
