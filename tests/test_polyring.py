import random

import pytest

from bivariate_division import divide_by_difference_power, substitute_equal
from knotfoam.errors import NonExactDivision
from knotfoam.polyring import IntPoly2, LaurentQ

X1 = IntPoly2.x1()
X2 = IntPoly2({(0, 1): 1})
DIFF = IntPoly2({(1, 0): 1, (0, 1): -1})


def random_poly(rng, max_exp=4, max_terms=6):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        terms[(rng.randint(0, max_exp), rng.randint(0, max_exp))] = rng.randint(-9, 9)
    return IntPoly2(terms)


# The two rings share every operation but the product of two polynomials
# and the rendering, so the tests of those operations take one row per
# ring, every value written out.

# x, y, x + y, x - y, x * y
ARITH = [
    (DIFF, IntPoly2.x1_plus_x2(), IntPoly2({(1, 0): 2}), IntPoly2({(0, 1): -2}),
     IntPoly2({(2, 0): 1, (0, 2): -1})),
    (LaurentQ({1: 1, -1: -1}), LaurentQ.circle(), LaurentQ({1: 2}), LaurentQ({-1: -2}),
     LaurentQ({2: 1, -2: -1})),
]


def test_add_sub_mul():
    for x, y, total, diff, prod in ARITH:
        ring = type(x)
        assert x + y == total and y + x == total
        assert x - y == diff and -x == ring.zero() - x
        assert x * y == prod and y * x == prod
        assert x + ring.zero() == x and x * ring.one() == x
        assert 3 * x == x * 3 == x + x + x
        assert not x * ring.zero() and not 0 * x and not x - x
    assert X1 + X2 == IntPoly2({(1, 0): 1, (0, 1): 1})
    assert not random_poly(random.Random(0)) * IntPoly2.zero()


def test_zero_terms_dropped():
    for p, kept in ((IntPoly2({(1, 0): 1, (0, 1): 0}), {(1, 0): 1}),
                    (LaurentQ({-1: 1, 2: 0}), {-1: 1})):
        assert p.terms == kept
        assert not p - p


def test_constructor_copies_and_operators_leave_operands():
    # the public constructor copies its terms, drops zeros and checks
    # IntPoly2 exponents; the operators leave their operands as they were
    terms = {(1, 0): 2, (0, 1): 0}
    p = IntPoly2(terms)
    terms[(0, 0)] = 5
    assert p.terms == {(1, 0): 2}
    with pytest.raises(ValueError, match="nonnegative"):
        IntPoly2({(-1, 0): 1})
    for x, y, _total, _diff, _prod in ARITH:
        before = x.terms
        for result in (x + y, x - y, x - x, -x, x * y, x * 3, 1 * x,
                       x + type(x).zero()):
            assert 0 not in result.terms.values()
        assert x.terms == before and not x * 0 and x * 0 == type(x).zero()
    assert DIFF.swap_variables() == -DIFF
    assert LaurentQ.circle(2).shifted(-1) == LaurentQ({1: 1, -1: 2, -3: 1})


def test_divide_by_difference():
    sq = X1 * X1 - X2 * X2
    assert divide_by_difference_power(sq, 1) == IntPoly2.x1_plus_x2()
    p = random_poly(random.Random(1))
    assert divide_by_difference_power(p, 0) == p
    with pytest.raises(NonExactDivision):
        divide_by_difference_power(IntPoly2.x1_plus_x2(), 1)


def test_divide_negative_power_multiplies():
    p = IntPoly2.one()
    assert divide_by_difference_power(p, -2) == DIFF * DIFF


def test_divide_round_trip():
    rng = random.Random(2)
    for _ in range(200):
        p = random_poly(rng)
        k = rng.randint(0, 4)
        prod = p * DIFF ** k
        assert divide_by_difference_power(prod, k) == p


def test_divide_rejects_non_multiples():
    # X1 - X2 divides p exactly when every homogeneous degree of p has
    # coefficient sum 0, i.e. when substitute_equal(p) is empty
    rng = random.Random(3)
    checked = 0
    while checked < 100:
        p = random_poly(rng, max_exp=6, max_terms=10)
        if not substitute_equal(p):
            continue
        k = rng.randint(1, 4)
        with pytest.raises(NonExactDivision):
            divide_by_difference_power(p * DIFF ** (k - 1), k)
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
        assert substitute_equal(p) == substitute_equal(p.swap_variables())


def test_rendering():
    for p, text, rep in (
        (IntPoly2({(2, 1): 1, (0, 0): -3}), "X1^2*X2 - 3", "IntPoly2(X1^2*X2 - 3)"),
        (IntPoly2.zero(), "0", "IntPoly2(0)"),
        (LaurentQ({2: 1, 0: 2, -2: 1}), "q^2 + 2 + q^-2", "LaurentQ(q^2 + 2 + q^-2)"),
        (LaurentQ.circle(), "q + q^-1", "LaurentQ(q + q^-1)"),
        (LaurentQ.zero(), "0", "LaurentQ(0)"),
        (LaurentQ.q(-1), "q^-1", "LaurentQ(q^-1)"),
        (LaurentQ.q(), "q", "LaurentQ(q)"),
        (LaurentQ({0: 7}), "7", "LaurentQ(7)"),
        (LaurentQ({2: -1, 0: 1, -3: 2}), "-q^2 + 1 + 2*q^-3",
         "LaurentQ(-q^2 + 1 + 2*q^-3)"),
        (LaurentQ({0: -1}), "-1", "LaurentQ(-1)"),
        (IntPoly2({(0, 3): -1}), "-X2^3", "IntPoly2(-X2^3)"),
        (IntPoly2.x1(), "X1", "IntPoly2(X1)"),
        (IntPoly2({(1, 1): 2, (1, 0): 1, (0, 3): -1, (0, 0): -1}),
         "2*X1*X2 + X1 - X2^3 - 1", "IntPoly2(2*X1*X2 + X1 - X2^3 - 1)"),
        (IntPoly2.constant(-1), "-1", "IntPoly2(-1)"),
    ):
        assert str(p) == text
        assert repr(p) == rep


def test_power():
    # x and x ** 2
    for x, square in ((DIFF, IntPoly2({(2, 0): 1, (1, 1): -2, (0, 2): 1})),
                      (LaurentQ.circle(), LaurentQ({2: 1, 0: 2, -2: 1}))):
        assert x ** 0 == type(x).one()
        assert x ** 1 == x
        assert x ** 2 == x * x == square
        assert x ** 3 == x * x * x
        with pytest.raises(ValueError):
            x ** -1


def test_circle_closed_form_is_repeated_multiplication():
    power = LaurentQ.one()
    for n in range(41):
        assert LaurentQ.circle(n) == power
        power = power * LaurentQ.circle()
    assert LaurentQ.circle() == LaurentQ({1: 1, -1: 1})
    with pytest.raises(ValueError):
        LaurentQ.circle(-1)


def test_laurent_shift():
    assert LaurentQ.circle().shifted(2) == LaurentQ({3: 1, 1: 1})


def test_hash_and_eq():
    for a, b, other in ((IntPoly2({(1, 1): 2}), IntPoly2.x1_times_x2() * 2, LaurentQ),
                        (LaurentQ({3: 2}), 2 * LaurentQ.q(3), IntPoly2)):
        ring = type(a)
        assert a == b and hash(a) == hash(b)
        assert a != a + a
        # equal terms in the other ring are still a different value
        assert ring.one() != other.one() and ring.zero() != other.zero()
