"""Division by powers of (X1 - X2) on whole ``IntPoly2`` values.

The term-by-term oracle of ``evaluate_foam`` divides with these, and
``test_polyring.py`` checks them.  They work degree by degree on any
polynomial, so they share no code with the evaluation's own division,
which runs on the one homogeneous row of a foam's blue sum.
"""

import math

from knotfoam.errors import NonExactDivision
from knotfoam.polyring import IntPoly2


def substitute_equal(p):
    """Collapse X1 = X2 = t; returns a map ``t-exponent -> coefficient``."""
    out = {}
    for (e1, e2), c in p.terms.items():
        k = e1 + e2
        v = out.get(k, 0) + c
        if v:
            out[k] = v
        elif k in out:
            del out[k]
    return out


def divide_by_difference_power(p, k):
    """Exact division of ``p`` by (X1 - X2)**k.

    For negative ``k`` the polynomial is multiplied by (X1 - X2)**(-k)
    instead.  Raises :class:`NonExactDivision` when a division step
    leaves a remainder.
    """
    if k < 0:
        m = -k
        return p * IntPoly2(
            {(j, m - j): (-1) ** (m - j) * math.comb(m, j) for j in range(m + 1)}
        )
    for _ in range(k):
        p = _divide_by_difference_once(p)
    return p


def _divide_by_difference_once(p):
    # In each homogeneous degree n, (X1 - X2) * sum_j q_j X1^j X2^(n-1-j)
    # has coefficient q_(j-1) - q_j at X1^j X2^(n-j).  So sweeping from
    # the highest X1-power down, q_(j-1) is the running sum of the
    # coefficients at X1^j and above, and the sum over the whole degree
    # is the remainder, left at X1^0 X2^n.
    degrees = {}
    for (e1, e2), c in p.terms.items():
        degrees.setdefault(e1 + e2, {})[e1] = c
    quot = {}
    rem = {}
    for n, row in degrees.items():
        acc = 0
        for j in range(max(row), 0, -1):
            acc += row.get(j, 0)
            if acc:
                quot[(j - 1, n - j)] = acc
        acc += row.get(0, 0)
        if acc:
            rem[(0, n)] = acc
    if rem:
        raise NonExactDivision(
            "remainder %s after division by (X1 - X2)" % IntPoly2(rem)
        )
    return IntPoly2(quot)
