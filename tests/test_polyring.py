import random

import pytest

from knotfoam.errors import NonExactDivision
from knotfoam.polyring import IntPoly2, LaurentQ

X1 = IntPoly2.x1()
X2 = IntPoly2.x2()
DIFF = IntPoly2.x1_minus_x2()


def random_poly(rng, max_exp=4, max_terms=6):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        terms[(rng.randint(0, max_exp), rng.randint(0, max_exp))] = rng.randint(-9, 9)
    return IntPoly2(terms)


def test_add_sub_mul():
    assert X1 + X2 == IntPoly2({(1, 0): 1, (0, 1): 1})
    assert DIFF * IntPoly2.x1_plus_x2() == IntPoly2({(2, 0): 1, (0, 2): -1})
    assert (random_poly(random.Random(0)) * IntPoly2.zero()).is_zero()


def test_zero_terms_dropped():
    p = IntPoly2({(1, 0): 1, (0, 1): 0})
    assert p.terms == {(1, 0): 1}
    assert (X1 - X1).is_zero()


def test_divide_by_difference():
    sq = X1 * X1 - X2 * X2
    assert sq.divide_by_difference_power(1) == IntPoly2.x1_plus_x2()
    p = random_poly(random.Random(1))
    assert p.divide_by_difference_power(0) == p
    with pytest.raises(NonExactDivision):
        IntPoly2.x1_plus_x2().divide_by_difference_power(1)


def test_divide_negative_power_multiplies():
    p = IntPoly2.one()
    assert p.divide_by_difference_power(-2) == DIFF * DIFF


def test_divide_round_trip():
    rng = random.Random(2)
    for _ in range(200):
        p = random_poly(rng)
        k = rng.randint(0, 4)
        prod = p * DIFF ** k
        assert prod.divide_by_difference_power(k) == p


def test_divide_rejects_non_multiples():
    # X1 - X2 divides p exactly when every homogeneous degree of p has
    # coefficient sum 0, i.e. when substitute_equal(p) is empty
    rng = random.Random(3)
    checked = 0
    while checked < 100:
        p = random_poly(rng, max_exp=6, max_terms=10)
        if not p.substitute_equal():
            continue
        k = rng.randint(1, 4)
        with pytest.raises(NonExactDivision):
            (p * DIFF ** (k - 1)).divide_by_difference_power(k)
        checked += 1


def test_is_symmetric():
    assert IntPoly2.x1_plus_x2().is_symmetric()
    assert not DIFF.is_symmetric()
    assert IntPoly2.x1_times_x2().is_symmetric()


def test_symmetric_product():
    rng = random.Random(3)
    for _ in range(50):
        p = random_poly(rng)
        q = random_poly(rng)
        ps = p + p.swap_variables()
        qs = q + q.swap_variables()
        assert ps.is_symmetric() and qs.is_symmetric()
        assert (ps * qs).is_symmetric()


def test_substitute_equal_consistency():
    rng = random.Random(4)
    for _ in range(50):
        p = random_poly(rng)
        p = p + p.swap_variables()
        assert p.substitute_equal() == p.swap_variables().substitute_equal()


def test_rendering():
    assert str(IntPoly2({(2, 1): 1, (0, 0): -3})) == "X1^2*X2 - 3"
    assert str(IntPoly2.zero()) == "0"
    assert str(LaurentQ({2: 1, 0: 2, -2: 1})) == "q^2 + 2 + q^-2"
    assert str(LaurentQ.circle()) == "q + q^-1"


def test_laurent_arith():
    circ = LaurentQ.circle()
    assert circ * circ == LaurentQ({2: 1, 0: 2, -2: 1})
    p = LaurentQ({3: 2})
    assert p + LaurentQ.zero() == p
    assert circ ** 0 == LaurentQ.one()
    assert circ ** 3 == circ * circ * circ


def test_laurent_shift():
    assert LaurentQ.circle().shifted(2) == LaurentQ({3: 1, 1: 1})


def test_hash_and_eq():
    a = IntPoly2({(1, 1): 2})
    b = IntPoly2.x1_times_x2() * 2
    assert a == b and hash(a) == hash(b)
