import dataclasses
import itertools

import pytest

import knotfoam.foam
from knotfoam.errors import MalformedFoam, NonBipartiteBinding, OddEuler
from knotfoam.foam import (
    BLUE,
    RED,
    Binding,
    Facet,
    Foam,
    FoamCombination,
    cap_closure,
    evaluate_foam,
    verify_local_relation,
)
from knotfoam.polyring import IntPoly2
from knotfoam.relations import (
    FIXTURE_NAMES,
    load_fixture,
    relation_fixtures,
    verify_all_relations,
)

EXPECTED = {
    "sphere-blue",
    "sphere-blue-dot",
    "sphere-red",
    "bubble-blue",
    "bubble-red",
    "bigon",
    "blue-neck-cutting",
    "red-neck-cutting",
    "migration",
    "blue-dot-reduction",
    "red-dot-reduction",
    "red-square-reduction",
    "tube-blue-blue",
    "tube-red-blue",
    "tube-membrane-cylinder",
    "band-cut",
    "strand-through-tube",
    "two-strands-through-tube",
}


def test_fixture_inventory():
    assert EXPECTED <= set(FIXTURE_NAMES)


def test_all_relations_pass():
    for name, ok, witness in verify_all_relations(max_dots=2):
        assert ok, (name, witness)


def test_relations_pass_with_no_dots():
    # the dot-free closure family is weaker but still consistent
    for name, ok, witness in verify_all_relations(max_dots=0):
        assert ok, (name, witness)


def flipped(combination):
    return FoamCombination(
        tuple((IntPoly2.constant(-1) * c, f) for c, f in combination.terms),
        name="flipped",
    )


def test_corrupted_relation_detected():
    name, _desc, lhs, rhs = load_fixture("red-neck-cutting")
    ok, witness = verify_local_relation(lhs, flipped(rhs), max_dots=2)
    assert not ok
    assert witness is not None and "dots" in witness
    assert witness["lhs"] != witness["rhs"]


def test_corrupted_dotless_relation_detected():
    # sign flips are visible even with undotted closures
    name, _desc, lhs, rhs = load_fixture("bubble-blue")
    ok, witness = verify_local_relation(lhs, flipped(rhs), max_dots=2)
    assert not ok


def test_signature_mismatch_raises():
    _n1, _d1, lhs, _r1 = load_fixture("blue-neck-cutting")
    _n2, _d2, _l2, rhs = load_fixture("red-neck-cutting")
    with pytest.raises(MalformedFoam):
        verify_local_relation(lhs, rhs)


def test_negative_max_dots_raises():
    _name, _desc, lhs, rhs = load_fixture("bubble-blue")
    with pytest.raises(ValueError, match="max_dots"):
        verify_local_relation(lhs, rhs, max_dots=-1)


def test_fixture_descriptions_present():
    for name, description, lhs, rhs in relation_fixtures():
        assert description
        assert lhs.terms or rhs.terms


# -- the harness against a plain loop over the closures ---------------


def reference_relation(lhs, rhs, max_dots):
    """Every closure of every term capped and evaluated anew."""
    sig = lhs.signature() or rhs.signature() or ()

    def value(combination, dots):
        total = IntPoly2.zero()
        for coeff, foam in combination.terms:
            slots = [s for s, _ in foam.free_boundary]
            total = total + coeff * evaluate_foam(
                cap_closure(foam, dict(zip(slots, dots))))
        return total

    for dots in itertools.product(range(max_dots + 1), repeat=len(sig)):
        lv = value(lhs, dots)
        rv = value(rhs, dots)
        if lv != rv:
            return False, {"dots": dots, "lhs": lv, "rhs": rv}
    return True, None


@pytest.mark.parametrize("max_dots", [0, 1, 2, 3])
def test_harness_matches_reference(max_dots):
    for _name, _desc, lhs, rhs in relation_fixtures():
        for right in (rhs, flipped(rhs)):
            assert (verify_local_relation(lhs, right, max_dots)
                    == reference_relation(lhs, right, max_dots))


def with_terms(combination, replace):
    """``combination`` with term k's foam replaced by ``replace[k](foam)``."""
    return FoamCombination(
        tuple((c, replace[k](f) if k in replace else f)
              for k, (c, f) in enumerate(combination.terms)),
        name=combination.name,
    )


def odd_genus(foam):
    """The first blue facet gets genus 0.5, so chi(Sb) is odd."""
    facets = list(foam.facets)
    k = next(i for i, f in enumerate(facets) if f.color == BLUE)
    facets[k] = dataclasses.replace(facets[k], genus=0.5)
    return Foam(tuple(facets), foam.bindings)


def non_bipartite(foam):
    """Adds a closed triangle of blue facets around one red facet."""
    blue = [Facet("odd%d" % i, BLUE, slots=("odd%d_a" % i, "odd%d_b" % i))
            for i in range(3)]
    red = Facet("odd_red", RED, slots=("odd_r0", "odd_r1", "odd_r2"))
    bindings = [Binding("odd_beta%d" % i,
                        ("odd%d_b" % i, "odd%d_a" % ((i + 1) % 3)),
                        "odd_r%d" % i)
                for i in range(3)]
    return Foam(foam.facets + tuple(blue) + (red,),
                foam.bindings + tuple(bindings))


@pytest.mark.parametrize("fixture, replace, error", [
    ("bigon", odd_genus, OddEuler),
    ("blue-neck-cutting", non_bipartite, NonBipartiteBinding),
])
def test_harness_raises_like_reference(fixture, replace, error):
    # the second term of the right side fails; the first terms of both
    # sides are evaluated before it, as in the plain loop
    _name, _desc, lhs, rhs = load_fixture(fixture)
    rhs = with_terms(rhs, {1: replace})
    with pytest.raises(error) as expected:
        reference_relation(lhs, rhs, 2)
    with pytest.raises(error) as got:
        verify_local_relation(lhs, rhs, 2)
    assert type(got.value) is type(expected.value)
    assert str(got.value) == str(expected.value)


def test_harness_colors_each_term_once(monkeypatch):
    # capping changes dots only, so a term's colorings are enumerated at
    # its first closure and reused by every other closure
    calls = []
    colorings = knotfoam.foam.enumerate_colorings

    def counted(foam):
        calls.append(foam)
        return colorings(foam)

    monkeypatch.setattr(knotfoam.foam, "enumerate_colorings", counted)
    for name, _desc, lhs, rhs in relation_fixtures():
        calls.clear()
        assert verify_local_relation(lhs, rhs, max_dots=2) == (True, None)
        assert len(calls) == len(lhs.terms) + len(rhs.terms), name
