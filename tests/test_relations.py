import pytest

from knotfoam.errors import MalformedFoam
from knotfoam.foam import FoamCombination, verify_local_relation
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


def test_corrupted_relation_detected():
    name, _desc, lhs, rhs = load_fixture("red-neck-cutting")
    flipped = FoamCombination(
        tuple((IntPoly2.constant(-1) * c, f) for c, f in rhs.terms),
        name="flipped",
    )
    ok, witness = verify_local_relation(lhs, flipped, max_dots=2)
    assert not ok
    assert witness is not None and "dots" in witness
    assert witness["lhs"] != witness["rhs"]


def test_corrupted_dotless_relation_detected():
    # sign flips are visible even with undotted closures
    name, _desc, lhs, rhs = load_fixture("bubble-blue")
    flipped = FoamCombination(
        tuple((IntPoly2.constant(-1) * c, f) for c, f in rhs.terms),
        name="flipped",
    )
    ok, witness = verify_local_relation(lhs, flipped, max_dots=2)
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
