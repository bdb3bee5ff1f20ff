"""The Fraction series tower: the tests' reference for the integer series lab.

A TruncatedSeries is a power series in t with XPoly coefficients,
truncated at a fixed order.  series_exp and degenerate_exp_series build
the exponentials the lab builds on int (x, l) lists, here in Fraction
arithmetic over the package's polynomial tower, so the lab's products,
exponentials and degenerate exponentials are compared with a second
implementation that shares none of their code.  The remaining helpers
(step-l and rising factorials, substitution of a value for l) are the
small references the ring and engine tests use.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from degenstirling.algebra import LAMBDA, LambdaPoly, Poly, X, XPoly, _require_at_least
from degenstirling.weyl import NormalForm


def rising_scalar(a, k: int):
    """Classical rising factorial a(a+1)...(a+k-1); empty product is 1."""
    out = 1
    for i in range(k):
        out = out * (a + i)
    return out


def gen_falling(base, n: int):
    """Falling factorial with step l: base(base - l)...(base - (n-1)l).

    Accepts an XPoly, a LambdaPoly, or a rational scalar; the result lives
    in the smallest ring containing base and l.
    """
    if not isinstance(n, int) or n < 0:
        raise ValueError("order must be a nonnegative integer")
    lifted = base if isinstance(base, Poly) else LambdaPoly._coerce(base)
    if lifted is None:
        raise TypeError(f"cannot take a step-l falling factorial of {base!r}")
    acc = lifted.one()
    for j in range(n):
        acc = acc * (lifted - j * LAMBDA)
    return acc


def gen_falling_factorial(n: int) -> XPoly:
    """(x)_{n,l} = x(x-l)...(x-(n-1)l)."""
    _require_at_least("n", n, 0)
    return gen_falling(X, n)


def rising_basis_poly(k: int) -> XPoly:
    """<x>_k = x(x+1)...(x+k-1) as an XPoly."""
    _require_at_least("k", k, 0)
    p = XPoly.one()
    for i in range(k):
        p = p * (X + i)
    return p


def at_lambda(obj, value):
    """An XPoly or a NormalForm with a rational substituted for l in every
    coefficient."""
    if isinstance(obj, NormalForm):
        return NormalForm({key: LambdaPoly.constant(c(value)) for key, c in obj.terms.items()})
    return XPoly([c(value) for c in obj.coeffs])


class TruncatedSeries:
    """Power series in t with XPoly coefficients, truncated at a fixed order.

    The order is part of the value: arithmetic between series of different
    orders is an error rather than a silent re-truncation.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, order: int, coeffs=()):
        if not isinstance(order, int) or order < 0:
            raise ValueError("order must be a nonnegative integer")
        cs = []
        for c in coeffs:
            xp = XPoly._coerce(c)
            if xp is None:
                raise TypeError(f"cannot use {c!r} as a series coefficient")
            cs.append(xp)
        if len(cs) > order + 1:
            raise ValueError(f"{len(cs)} coefficients exceed order {order}")
        cs.extend(XPoly.zero() for _ in range(order + 1 - len(cs)))
        self._coeffs = tuple(cs)

    @classmethod
    def zero(cls, order: int) -> "TruncatedSeries":
        return cls(order)

    @classmethod
    def one(cls, order: int) -> "TruncatedSeries":
        return cls(order, (XPoly.one(),))

    @property
    def order(self) -> int:
        return len(self._coeffs) - 1

    @property
    def coeffs(self) -> tuple:
        return self._coeffs

    def coefficient(self, n: int) -> XPoly:
        if not 0 <= n <= self.order:
            raise IndexError(f"coefficient {n} outside order {self.order}")
        return self._coeffs[n]

    def _same_order(self, other: "TruncatedSeries"):
        if self.order != other.order:
            raise ValueError(
                f"series order mismatch: {self.order} vs {other.order}"
            )

    def __add__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._same_order(other)
        return TruncatedSeries(
            self.order, [a + b for a, b in zip(self._coeffs, other._coeffs)]
        )

    def __sub__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._same_order(other)
        return TruncatedSeries(
            self.order, [a - b for a, b in zip(self._coeffs, other._coeffs)]
        )

    def __neg__(self):
        return TruncatedSeries(self.order, [-c for c in self._coeffs])

    def __mul__(self, other):
        if isinstance(other, TruncatedSeries):
            self._same_order(other)
            n = self.order
            out = [XPoly.zero()] * (n + 1)
            for i, a in enumerate(self._coeffs):
                if a.is_zero():
                    continue
                for j in range(n - i + 1):
                    b = other._coeffs[j]
                    if not b.is_zero():
                        out[i + j] = out[i + j] + a * b
            return TruncatedSeries(n, out)
        o = XPoly._coerce(other)
        if o is None:
            return NotImplemented
        return TruncatedSeries(self.order, [c * o for c in self._coeffs])

    def __rmul__(self, other):
        o = XPoly._coerce(other)
        if o is None:
            return NotImplemented
        return self * o

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self):
        return hash(self._coeffs)

    def __repr__(self):
        return f"TruncatedSeries(order={self.order}, {[str(c) for c in self._coeffs]!r})"


def series_exp(u: TruncatedSeries) -> TruncatedSeries:
    """exp of a series with zero constant term: sum_m u^m / m!, exact.

    Powers beyond the truncation order vanish because u has valuation >= 1,
    so the loop below is the whole exponential, not an approximation.
    """
    if not u.coefficient(0).is_zero():
        raise ValueError("series_exp needs a zero constant term")
    n = u.order
    result = TruncatedSeries.one(n)
    term = TruncatedSeries.one(n)
    for m in range(1, n + 1):
        term = term * u * Fraction(1, m)
        result = result + term
    return result


def degenerate_exp_series(xcoef, order: int) -> TruncatedSeries:
    """Degenerate exponential: coefficient of t^k is (xcoef)_{k,l} / k!.

    xcoef may be any XPoly (or scalar); the falling steps are multiples
    of l, so e.g. xcoef=1 gives the series whose t-coefficients are
    (1)_{k,l}/k! = (1)(1-l)...(1-(k-1)l)/k!.
    """
    base = XPoly._coerce(xcoef)
    if base is None:
        raise TypeError(f"cannot use {xcoef!r} as the exponent coefficient")
    if not isinstance(order, int) or order < 0:
        raise ValueError("order must be a nonnegative integer")
    lam = XPoly.constant(LAMBDA)
    coeffs = []
    prod = XPoly.one()
    for k in range(order + 1):
        if k:
            prod = prod * (base - (k - 1) * lam)
        coeffs.append(prod / factorial(k))
    return TruncatedSeries(order, coeffs)
