import hashlib
import json
import pathlib
import random
from fractions import Fraction

import pytest

import knotfoam.foam
from bivariate_division import divide_by_difference_power
from foam_oracle import (
    SIGMA_1,
    SIGMA_B,
    blue_components,
    chi_subsurface,
    count_n12,
    evaluate_term_by_term,
)
from knotfoam.errors import MalformedFoam, NonBipartiteBinding, NonExactDivision, OddEuler
from knotfoam.foam import (
    BLUE,
    RED,
    Binding,
    Facet,
    Foam,
    cap_closure,
    enumerate_colorings,
    evaluate_foam,
    foam_from_json,
    foam_to_json,
    random_closed_foam,
)
from knotfoam.polyring import IntPoly2

E = IntPoly2.x1_plus_x2()
PI = IntPoly2.x1_times_x2()
X1 = IntPoly2.x1()
X2 = IntPoly2({(0, 1): 1})


def blue_sphere(dots=0):
    return Foam((Facet("b", BLUE, dots=dots),), ())


def red_sphere(dots=0, squares=0):
    return Foam((Facet("r", RED, dots=dots, squares=squares),), ())


def theta(dots_u=0, dots_l=0, dots_r=0, squares_r=0, order=("u", "l")):
    return Foam(
        (
            Facet("U", BLUE, dots=dots_u, slots=("u",)),
            Facet("L", BLUE, dots=dots_l, slots=("l",)),
            Facet("R", RED, dots=dots_r, squares=squares_r, slots=("r",)),
        ),
        (Binding("beta", order, "r"),),
    )


def test_validate_ok():
    # a foam is checked when built, and keeps its free boundary and the
    # facets of each binding's blue pages
    assert red_sphere().free_boundary == () and red_sphere().pages == ()
    assert theta().free_boundary == ()
    assert theta().pages == (("U", "L"),)
    assert theta(order=("l", "u")).pages == (("L", "U"),)
    cyl = Foam((Facet("c", BLUE, slots=("t", "b")),), ())
    assert cyl.free_boundary == (("t", BLUE), ("b", BLUE))
    assert repr(cyl) == "Foam(facets=%r, bindings=())" % (cyl.facets,)


def test_validate_rejects_squares_on_blue():
    with pytest.raises(MalformedFoam, match="^facet 'b' is blue but carries squares$"):
        Foam((Facet("b", BLUE, squares=1),), ())


def test_validate_rejects_genus_off_the_half_integers():
    for genus in (0.25, Fraction(1, 3)):
        with pytest.raises(MalformedFoam, match="^facet 'b' has genus .*, "
                           "not a multiple of 1/2$"):
            Foam((Facet("b", BLUE, genus=genus),), ())
    for genus in (0.5, Fraction(3, 2), 2):
        assert Foam((Facet("b", RED, genus=genus),), ())


def test_validate_rejects_half_a_dot():
    with pytest.raises(MalformedFoam, match="^facet 'b': dots must be an integer$"):
        Foam((Facet("b", BLUE, dots=0.5),), ())


def test_validate_rejects_a_float_dot_count():
    with pytest.raises(MalformedFoam, match="^facet 'b': dots must be an integer$"):
        Foam((Facet("b", BLUE, dots=1.0),), ())


def test_validate_rejects_a_bool_dot_count():
    with pytest.raises(MalformedFoam, match="^facet 'b': dots must be an integer$"):
        Foam((Facet("b", BLUE, dots=True),), ())


def test_validate_rejects_half_a_square():
    with pytest.raises(MalformedFoam, match="^facet 'r': squares must be an integer$"):
        red_sphere(squares=0.5)


def test_validate_rejects_a_facet_id_that_is_not_a_string():
    # evaluation sorts the blue facet ids, and 2 does not compare with "b1"
    with pytest.raises(MalformedFoam, match="^facet id 2 is not a string$"):
        Foam((Facet("b1", BLUE, slots=("u",)), Facet(2, BLUE, slots=("l",)),
              Facet("r", RED, slots=("r",))), (Binding("beta", ("u", "l"), "r"),))


def test_validate_rejects_a_genus_that_is_not_a_number():
    for genus in ("1", True, None, 1j):
        with pytest.raises(MalformedFoam, match="^facet 'b': genus must be a number$"):
            Foam((Facet("b", BLUE, genus=genus),), ())


def test_validate_rejects_missing_slot():
    with pytest.raises(MalformedFoam,
                       match="^binding 'x' references missing slot 't'$"):
        Foam((Facet("b", BLUE, slots=("s",)),), (Binding("x", ("s", "t"), "u"),))


def test_validate_rejects_red_page_on_blue():
    with pytest.raises(MalformedFoam,
                       match="^binding 'x' red page 's3' is on a blue facet$"):
        Foam(
            (
                Facet("a", BLUE, slots=("s1",)),
                Facet("b", BLUE, slots=("s2",)),
                Facet("c", BLUE, slots=("s3",)),
            ),
            (Binding("x", ("s1", "s2"), "s3"),),
        )


def test_binding_that_lists_one_slot_twice():
    # the binding names the slot twice; no second binding is involved
    facets = (Facet("U", BLUE, slots=("u",)), Facet("R", RED, slots=("r",)))
    with pytest.raises(MalformedFoam, match="^binding 'beta' lists slot 'u' twice$"):
        Foam(facets, (Binding("beta", ("u", "u"), "r"),))


def test_facet_slots_given_as_a_string_are_malformed():
    # "uv" would otherwise read as the two slots u and v
    with pytest.raises(MalformedFoam, match="^facet 'b': slots must be a tuple "
                       "of names, not the string 'uv'$"):
        Facet("b", BLUE, slots="uv")
    assert Facet("b", BLUE, slots=["u", "v"]).slots == ("u", "v")


def test_binding_blue_pages_given_as_a_string_are_malformed():
    with pytest.raises(MalformedFoam, match="^binding 'beta': blue_pages must be "
                       "a pair of names, not the string 'ul'$"):
        Binding("beta", "ul", "r")
    assert Binding("beta", ["u", "l"], "r").blue_pages == ("u", "l")


def test_blue_components():
    assert len(blue_components(blue_sphere())) == 1
    two = Foam((Facet("a", BLUE), Facet("b", BLUE)), ())
    assert len(blue_components(two)) == 2
    assert len(blue_components(theta())) == 1


def test_coloring_counts():
    assert len(enumerate_colorings(blue_sphere())) == 2
    assert len(enumerate_colorings(red_sphere())) == 1
    assert len(enumerate_colorings(theta())) == 2


def test_colorings_proper_and_deterministic():
    foam = theta()
    colorings = enumerate_colorings(foam)
    assert colorings == enumerate_colorings(foam)
    for c in colorings:
        assert c["U"] != c["L"]


def test_nonbipartite_rejected():
    foam = Foam(
        (
            Facet("b", BLUE, slots=("s1", "s2")),
            Facet("r", RED, slots=("s3",)),
        ),
        (Binding("x", ("s1", "s2"), "s3"),),
    )
    with pytest.raises(NonBipartiteBinding):
        enumerate_colorings(foam)


def test_chi_subsurface():
    c = enumerate_colorings(blue_sphere())[0]
    # base coloring assigns 1 to the sphere
    assert c["b"] == 1
    assert chi_subsurface(blue_sphere(), c, SIGMA_1) == 2
    rc = enumerate_colorings(red_sphere())[0]
    assert chi_subsurface(red_sphere(), rc, SIGMA_B) == 0
    tc = enumerate_colorings(theta())[0]
    assert chi_subsurface(theta(), tc, SIGMA_B) == 2


def test_chi_odd_guard():
    disk = Foam((Facet("b", BLUE, slots=("h",)),), ())
    with pytest.raises(OddEuler):
        chi_subsurface(disk, {"b": 1}, SIGMA_B)


def test_count_n12():
    assert count_n12(red_sphere(), {}) == 0
    assert count_n12(blue_sphere(), {"b": 1}) == 0
    foam = theta()
    assert count_n12(foam, {"U": 1, "L": 2}) == 1
    assert count_n12(foam, {"U": 2, "L": 1}) == 0


def test_sphere_evaluations():
    assert evaluate_foam(red_sphere()) == IntPoly2.constant(-1)
    assert not evaluate_foam(blue_sphere())
    assert evaluate_foam(blue_sphere(dots=1)) == IntPoly2.constant(-1)
    assert evaluate_foam(blue_sphere(dots=2)) == -1 * E


def test_red_sphere_decorations():
    for p in range(3):
        for s in range(3):
            expected = IntPoly2.constant(-1) * E ** p * PI ** s
            assert evaluate_foam(red_sphere(dots=p, squares=s)) == expected


def test_theta_evaluations():
    assert not evaluate_foam(theta())
    assert evaluate_foam(theta(dots_u=1)) == IntPoly2.one()
    assert evaluate_foam(theta(dots_l=1)) == IntPoly2.constant(-1)
    # reversing the page order flips the sign
    assert evaluate_foam(theta(dots_u=1, order=("l", "u"))) == IntPoly2.constant(-1)


def test_evaluate_requires_closed():
    disk = Foam((Facet("b", BLUE, slots=("h",)),), ())
    with pytest.raises(MalformedFoam):
        evaluate_foam(disk)


def test_cap_closure_cylinder():
    cyl = Foam((Facet("c", BLUE, slots=("t", "b")),), ())
    assert not evaluate_foam(cap_closure(cyl))
    assert evaluate_foam(cap_closure(cyl, {"t": 1})) == IntPoly2.constant(-1)
    assert evaluate_foam(cap_closure(cyl, {"t": 1, "b": 1})) == -1 * E


def test_cap_closure_bad_slot():
    with pytest.raises(MalformedFoam):
        cap_closure(blue_sphere(), {"nope": 1})


def test_random_foams_symmetric():
    rng = random.Random(7)
    for _ in range(120):
        foam = random_closed_foam(rng)
        value = evaluate_foam(foam)
        assert value.is_symmetric()


def test_coloring_count_matches_components():
    rng = random.Random(8)
    for _ in range(60):
        foam = random_closed_foam(rng)
        k = len(blue_components(foam))
        assert len(enumerate_colorings(foam)) == 2 ** k


def test_chi_parity():
    rng = random.Random(9)
    for _ in range(60):
        foam = random_closed_foam(rng)
        for coloring in enumerate_colorings(foam):
            assert chi_subsurface(foam, coloring, SIGMA_1) % 2 == 0
            assert chi_subsurface(foam, coloring, SIGMA_B) % 2 == 0


def test_red_decoration_multiplies():
    rng = random.Random(10)
    for _ in range(40):
        foam = random_closed_foam(rng)
        reds = [f for f in foam.facets if f.color == RED]
        if not reds:
            continue
        target = reds[0].id
        base = evaluate_foam(foam)
        p, s = rng.randint(0, 2), rng.randint(0, 2)
        decorated = Foam(
            tuple(
                Facet(f.id, f.color, f.genus, f.dots + (p if f.id == target else 0),
                      f.squares + (s if f.id == target else 0), f.slots)
                for f in foam.facets
            ),
            foam.bindings,
        )
        assert evaluate_foam(decorated) == base * E ** p * PI ** s


def test_blue_two_dot_reduction_consistency():
    # adding two dots on one blue facet agrees with the reduction
    # (X1+X2) * one dot - X1*X2 * no dot, facet by facet
    rng = random.Random(11)
    checked = 0
    while checked < 25:
        foam = random_closed_foam(rng)
        blues = [f for f in foam.facets if f.color == BLUE]
        if not blues:
            continue
        target = blues[0].id

        def with_dots(extra):
            return Foam(
                tuple(
                    Facet(f.id, f.color, f.genus,
                          f.dots + (extra if f.id == target else 0),
                          f.squares, f.slots)
                    for f in foam.facets
                ),
                foam.bindings,
            )

        lhs = evaluate_foam(with_dots(2))
        rhs = E * evaluate_foam(with_dots(1)) - PI * evaluate_foam(with_dots(0))
        assert lhs == rhs
        checked += 1


def test_json_round_trip():
    rng = random.Random(12)
    for _ in range(20):
        foam = random_closed_foam(rng)
        again = foam_from_json(foam_to_json(foam))
        assert evaluate_foam(again) == evaluate_foam(foam)


def test_json_rejects_mismatched_boundary():
    data = foam_to_json(Foam((Facet("b", BLUE, slots=("h",)),), ()))
    data["free_boundary"] = []
    with pytest.raises(MalformedFoam):
        foam_from_json(data)


def _outcome(evaluate, foam):
    try:
        return evaluate(foam)
    except (OddEuler, NonBipartiteBinding, MalformedFoam, NonExactDivision) as exc:
        return type(exc), str(exc)


def test_evaluation_matches_term_by_term_oracle():
    checked = 0
    for seed in (31, 32, 33, 34, 35):
        rng = random.Random(seed)
        for _ in range(120):
            foam = random_closed_foam(rng)
            assert evaluate_foam(foam) == evaluate_term_by_term(foam)
            checked += 1
    assert checked >= 500


def _redecorated(foam, rng):
    """The foam with wider decorations: dots 0-6, genus 0-3 and, on red
    facets, squares 0-3."""
    return Foam(
        tuple(Facet(f.id, f.color, rng.randint(0, 3), rng.randint(0, 6),
                    rng.randint(0, 3) if f.color == RED else 0, f.slots)
              for f in foam.facets),
        foam.bindings,
    )


def test_evaluation_matches_the_oracle_on_wide_decorations():
    # the same value, or the same exception and message, on 2,400 foams:
    # as drawn, and redrawn with larger dots, genus and squares
    checked = 0
    for seed in range(40, 52):
        rng = random.Random(seed)
        for _ in range(100):
            foam = random_closed_foam(rng)
            for f in (foam, _redecorated(foam, rng)):
                assert (_outcome(evaluate_foam, f)
                        == _outcome(evaluate_term_by_term, f)), f
                checked += 1
    assert checked >= 2000


def _refuse_colorings(monkeypatch):
    """Make enumerate_colorings raise: the evaluation must not list them."""
    def refuse(foam):
        raise AssertionError("the evaluation enumerated the colorings")

    monkeypatch.setattr(knotfoam.foam, "enumerate_colorings", refuse)


def test_one_coloring_pass_per_evaluation(monkeypatch):
    # evaluate_foam walks the blue pages once, looking _blue_walk up in its
    # module, and takes one factor per blue component instead of listing
    # the 2**k colorings
    walks = []
    walk = knotfoam.foam._blue_walk

    def counted(foam):
        walks.append(walk(foam))
        return walks[-1]

    _refuse_colorings(monkeypatch)
    monkeypatch.setattr(knotfoam.foam, "_blue_walk", counted)
    rng = random.Random(13)
    for _ in range(60):
        foam = random_closed_foam(rng)
        walks.clear()
        evaluate_foam(foam)
        assert len(walks) == 1
        k = len(blue_components(foam))
        assert walks[0][1] == k
        assert len(knotfoam.foam._colorings(foam)[1]) == k


def test_row_edge_cases():
    dotted_pair = Foam((Facet("a", BLUE, dots=1), Facet("b", BLUE)), ())
    genus_two = Foam((Facet("g", BLUE, genus=2, dots=1),), ())
    with_red = Foam(genus_two.facets + (Facet("r", RED, dots=2, squares=1),), ())
    cases = [
        # a zero blue sum under k = 2 divisions, of degree 0 and 1
        (Foam((Facet("a", BLUE), Facet("b", BLUE)), ()), IntPoly2.zero()),
        (dotted_pair, IntPoly2.zero()),
        # k = -1 multiplies by X1 - X2, with and without a red facet
        (genus_two, -1 * (X1 - X2) * (X1 - X2)),
        (with_red, (X1 - X2) * (X1 - X2) * E ** 2 * PI),
        # no red facet: -(X1^3 - X2^3) / (X1 - X2)
        (blue_sphere(dots=3), -1 * (X1 * X1 + X1 * X2 + X2 * X2)),
    ]
    for foam, expected in cases:
        assert evaluate_foam(foam) == expected == evaluate_term_by_term(foam), foam


def test_row_arithmetic_matches_the_polynomial_oracle():
    # the value part on hand-made factors: a blue sum
    # sign * prod_j (X1^a_j X2^b_j + eps_j X1^b_j X2^a_j), the dots a_j and
    # b_j shared out over 0-2 facets on each side, k divisions by X1 - X2
    # (k < 0 multiplies), and red dots and squares
    rng = random.Random(14)
    raised = 0
    for _ in range(400):
        sign = rng.choice((1, -1))
        blue_sum = IntPoly2.constant(sign)
        factors = []
        dots = []
        for _ in range(rng.randint(0, 4)):
            sides = []
            for _ in range(2):
                side = [rng.randint(0, 2) for _ in range(rng.randint(0, 2))]
                sides.append(list(range(len(dots), len(dots) + len(side))))
                dots += side
            a, b = (sum(dots[i] for i in side) for side in sides)
            eps = rng.choice((1, -1))
            factors.append((*sides, eps))
            blue_sum = blue_sum * (IntPoly2({(a, b): 1}) + eps * IntPoly2({(b, a): 1}))
        k = rng.randint(-3, 4)
        red_dots, squares = rng.randint(0, 3), rng.randint(0, 2)
        dots.append(red_dots)
        colorings = (sign, factors, k, [len(dots) - 1], squares)

        outcome = _outcome(lambda c: knotfoam.foam._value(c, dots), colorings)
        assert outcome == _outcome(
            lambda p: divide_by_difference_power(p, k) * E ** red_dots * PI ** squares,
            blue_sum), (factors, dots, k)
        raised += type(outcome) is tuple
    assert raised >= 50


def _union(parts):
    """The disjoint union of the parts, every id of part i prefixed "i."."""
    facets = []
    bindings = []
    for i, foam in enumerate(parts):
        pre = "%d." % i
        facets += [Facet(pre + f.id, f.color, f.genus, f.dots, f.squares,
                         tuple(pre + s for s in f.slots)) for f in foam.facets]
        bindings += [Binding(pre + b.id, tuple(pre + s for s in b.blue_pages),
                             pre + b.red_page) for b in foam.bindings]
    return Foam(tuple(facets), tuple(bindings))


THETAS_24 = pathlib.Path(__file__).parent / "data" / "foams" / "thetas-24"


def _thetas_24_parts():
    """24 thetas with 1-2 dots on the upper page, and four random foams of
    nonzero value at random places among them."""
    rng = random.Random(24)
    parts = [theta(dots_u=rng.randint(1, 2)) for _ in range(24)]
    mixed = 0
    while mixed < 4:
        foam = random_closed_foam(rng)
        if evaluate_foam(foam):
            parts.insert(rng.randrange(len(parts) + 1), foam)
            mixed += 1
    return parts


def test_disjoint_union_is_the_product_of_its_parts(monkeypatch):
    # the sum over the union's 2**k colorings (k = 24 + the random parts'
    # components) is out of reach; the product over components is not.
    # The CLI step of CI evaluates the same union from the JSON file.
    _refuse_colorings(monkeypatch)
    parts = _thetas_24_parts()
    union = _union(parts)
    assert foam_from_json(json.loads(THETAS_24.with_suffix(".json").read_text())) == union
    k = len(blue_components(union))
    assert k == 29
    product = IntPoly2.one()
    for part in parts:
        product = product * evaluate_foam(part)
    value = evaluate_foam(union)
    assert value == product and value
    assert THETAS_24.with_suffix(".txt").read_text() == "%s\nsymmetric: true\n" % value


def test_half_integer_genus_evaluates_or_raises_odd_euler():
    # the seed-11 foams with 1/2 added to the genus of each facet at
    # random: every chi is an int, so where all of them are even the foam
    # evaluates to the oracle's value, and elsewhere both raise OddEuler
    rng = random.Random(11)
    kinds = {OddEuler: 0, IntPoly2: 0}
    for _ in range(4000):
        foam = random_closed_foam(rng)
        foam = Foam(
            tuple(Facet(f.id, f.color, f.genus + rng.choice((0, 0.5)), f.dots,
                        f.squares, f.slots) for f in foam.facets),
            foam.bindings,
        )
        outcome = _outcome(evaluate_foam, foam)
        assert outcome == _outcome(evaluate_term_by_term, foam), foam
        kinds[type(outcome) if isinstance(outcome, IntPoly2) else outcome[0]] += 1
    assert kinds[OddEuler] > 3000 and kinds[IntPoly2] > 500, kinds


def _odd_cycle(genus=0):
    # three blue facets bound in a triangle: no proper 2-coloring
    blue = [Facet(x, BLUE, genus=genus, slots=(x + "1", x + "2")) for x in "ABC"]
    red = Facet("R", RED, slots=("r1", "r2", "r3"))
    bindings = (
        Binding("ab", ("A1", "B2"), "r1"),
        Binding("bc", ("B1", "C2"), "r2"),
        Binding("ca", ("C1", "A2"), "r3"),
    )
    return Foam(tuple(blue) + (red,), bindings)


def _with_genus(foam, **genus):
    return Foam(
        tuple(Facet(f.id, f.color, genus.get(f.id, f.genus), f.dots, f.squares, f.slots)
              for f in foam.facets),
        foam.bindings,
    )


def test_evaluation_raises_like_the_oracle():
    # a half-integer genus passes Foam's checks (foam_from_json rejects
    # one) and makes a facet's Euler characteristic odd
    half = 0.5
    one_facet_pages = Foam(
        (Facet("b", BLUE, slots=("s1", "s2")), Facet("r", RED, slots=("s3",))),
        (Binding("x", ("s1", "s2"), "s3"),),
    )
    cases = [
        (_with_genus(theta(), R=half), OddEuler),  # chi(S1) odd throughout
        (_with_genus(theta(), U=half, L=half), OddEuler),  # only chi(S1) odd
        (_with_genus(theta(), U=half), OddEuler),  # chi(Sb) odd
        (_with_genus(blue_sphere(), b=half), OddEuler),
        # chi(Sb) and the base are even; the first odd coloring flips the
        # second theta alone, after the even flip of the first
        (_with_genus(_union([theta()] * 3), **{"1.U": half, "2.U": half}), OddEuler),
        (one_facet_pages, NonBipartiteBinding),
        (_odd_cycle(), NonBipartiteBinding),
        (_odd_cycle(half), NonBipartiteBinding),  # checked before chi
    ]
    for foam, expected in cases:
        outcome = _outcome(evaluate_foam, foam)
        assert outcome[0] is expected, foam
        assert outcome == _outcome(evaluate_term_by_term, foam), foam


def test_random_closed_foam_stream_is_pinned():
    # the SHA-256 of the JSON of 2,000 seeded foams: a change to the
    # generator that moves any RNG call changes every later foam
    rng = random.Random(5)
    text = json.dumps([foam_to_json(random_closed_foam(rng)) for _ in range(2000)],
                      sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "91f9edc3f824d8de318045640a592ba6589638868a7b5924ea391b48ecb5f0de")
