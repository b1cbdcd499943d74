"""Exact polynomial arithmetic.

Two small rings are implemented with plain dictionaries and Python's
arbitrary-precision integers.  Both are one sparse term ring, ``_Poly``,
a map ``exponent -> coefficient`` with one product and one printer; each
ring gives its exponent sum and the body of a term:

* ``IntPoly2`` -- polynomials in Z[X1, X2], the value ring of foam
  evaluations: exponent pairs ``(e1, e2)``, bodies like ``X1^2*X2``.
* ``LaurentQ`` -- Laurent polynomials in q, used for graded dimensions
  and the Jones polynomial: integer exponents, bodies like ``q^-3``.

Values are immutable after construction and all operations are pure, so
instances may be shared freely.  The rings hold no division: foam
evaluation divides by (X1 - X2)^k on its own row of coefficients.
"""

from __future__ import annotations

import math
import operator


class _Poly:
    """Terms ``exponent -> coefficient`` with no zero coefficients.

    Every result is built with ``type(self)``, so it stays in the ring
    of its operands.  A ring sets ``_UNIT``, the exponent of 1, ``_add``,
    the exponent sum, and ``_body``, a term's monomial ("" for 1).  The
    constructor copies its terms and drops zeros; results are built by
    ``_adopt``.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        self._terms = {k: c for k, c in dict(terms or {}).items() if c}

    @classmethod
    def _adopt(cls, terms):
        """The polynomial that takes ``terms``, a fresh dict with no zero
        coefficient, as its own, without copying or checking it."""
        p = object.__new__(cls)
        p._terms = terms
        return p

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({cls._UNIT: 1})

    @property
    def terms(self):
        return dict(self._terms)

    def __bool__(self):
        return bool(self._terms)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __add__(self, other):
        return self._adopt(_summed(self._terms, other._terms, 1))

    def __sub__(self, other):
        return self._adopt(_summed(self._terms, other._terms, -1))

    def __neg__(self):
        return self._adopt({k: -c for k, c in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            if not other:
                return self.zero()
            return self._adopt({k: c * other for k, c in self._terms.items()})
        add = self._add
        out = {}
        for a, c in self._terms.items():
            for b, d in other._terms.items():
                k = add(a, b)
                out[k] = out.get(k, 0) + c * d
        return self._adopt({k: c for k, c in out.items() if c})

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power")
        result = self.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __str__(self):
        out = ""
        for e in sorted(self._terms, reverse=True):
            c, body = self._terms[e], self._body(e)
            if not body:
                core = str(abs(c))
            elif abs(c) == 1:
                core = body
            else:
                core = "%d*%s" % (abs(c), body)
            if out:
                out += " - " if c < 0 else " + "
            elif c < 0:
                out = "-"
            out += core
        return out or "0"

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, self)


def _summed(terms, other, sign):
    """A copy of ``terms`` plus ``sign`` times ``other``, with no zeros.

    A coefficient of ``other`` is never zero, so a sum that is zero
    cancels a term already in the copy.
    """
    out = dict(terms)
    for k, c in other.items():
        c = out.get(k, 0) + sign * c
        if c:
            out[k] = c
        else:
            del out[k]
    return out


class IntPoly2(_Poly):
    """A polynomial in Z[X1, X2].

    Terms are stored as a map ``(e1, e2) -> coefficient`` with no zero
    coefficients and nonnegative exponents.
    """

    __slots__ = ()
    _UNIT = (0, 0)

    def __init__(self, terms=None):
        super().__init__(terms)
        for (e1, e2) in self._terms:
            if e1 < 0 or e2 < 0:
                raise ValueError("exponents must be nonnegative")

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, c):
        return cls({(0, 0): c})

    @classmethod
    def x1(cls, power=1):
        return cls({(power, 0): 1})

    @classmethod
    def x1_plus_x2(cls):
        return cls({(1, 0): 1, (0, 1): 1})

    @classmethod
    def x1_times_x2(cls):
        return cls({(1, 1): 1})

    @staticmethod
    def _add(a, b):
        return a[0] + b[0], a[1] + b[1]

    @staticmethod
    def _body(e):
        factors = (_render_var("X1", e[0]), _render_var("X2", e[1]))
        return "*".join(f for f in factors if f)

    # -- structure ----------------------------------------------------

    def swap_variables(self):
        """The polynomial with X1 and X2 exchanged."""
        return IntPoly2._adopt({(e2, e1): c for (e1, e2), c in self._terms.items()})

    def is_symmetric(self):
        """True iff swapping X1 <-> X2 fixes the polynomial."""
        return self == self.swap_variables()


def _render_var(name, e):
    if e == 0:
        return ""
    if e == 1:
        return name
    return "%s^%d" % (name, e)


class LaurentQ(_Poly):
    """A Laurent polynomial in q with integer coefficients."""

    __slots__ = ()
    _UNIT = 0
    _add = staticmethod(operator.add)

    @staticmethod
    def _body(e):
        return _render_var("q", e)

    @classmethod
    def q(cls, power=1):
        return cls({power: 1})

    @classmethod
    def circle(cls, n=1):
        """(q + q^-1)^n, the graded dimension of n circles, in binomial form."""
        if n < 0:
            raise ValueError("negative power")
        return cls._adopt({n - 2 * k: math.comb(n, k) for k in range(n + 1)})

    def shifted(self, k):
        """Multiply by q**k (k may be negative)."""
        return LaurentQ._adopt({e + k: c for e, c in self._terms.items()})
