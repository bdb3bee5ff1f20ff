"""Exact arithmetic tower used by everything else.

From the bottom up: arbitrary-precision rationals, polynomials in the
deformation parameter (printed ``l``) whose coefficients are ints when
integral and Fractions otherwise, polynomials in ``x`` whose coefficients
are such polynomials, and formal power series in ``t`` truncated at a
fixed order whose coefficients live one level down.
The two polynomial rungs are one class, ``Poly``: ``LambdaPoly`` and
``XPoly`` only name their coefficient ring and how they print, and an
operand of a lower rung is lifted to the higher one.
Every object is immutable and every operation is exact; no floating
point enters this module or anything built on it.

The last section is the int (x, l) list format that stirling's basis
peel, serieslab's series and bell's recurrence run on instead: an int
polynomial in x and l is a list over the degree in x of int lists in l
([[1], [0, -2]] is 1 - 2 l x), and a series in t is the list of its
entries n! [t^n].  _cleared and _lambda_polys cross between the tower
and the format over one common denominator, _evaluate reads cleared rows
at a rational point, _convolve is entry n of a product of series, and
_degenerate_exp gives the entries (b)_{n,l}.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction
from functools import reduce
from itertools import zip_longest
from math import comb, factorial, lcm

__all__ = [
    "Poly",
    "LambdaPoly",
    "XPoly",
    "TruncatedSeries",
    "LAMBDA",
    "X",
    "as_rational",
    "rational_str",
    "falling_scalar",
    "rising_scalar",
    "gen_falling",
    "series_exp",
    "degenerate_exp_series",
]


def as_rational(value) -> Fraction:
    """Coerce int/str/Fraction to Fraction; a Fraction is returned as it is.
    Floats are refused: a float has already lost exactness before it
    reaches us."""
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise TypeError(f"refusing float {value!r}; pass a Fraction, int or string")
    return Fraction(value)


def rational_str(q: Fraction) -> str:
    """Canonical wire form "p/q", denominator always present ("3" -> "3/1").

    Exact at any size: an integer longer than the interpreter's int-to-str
    digit limit is written through Decimal, which has no such limit, and
    the process-wide limit is left as it is."""
    try:
        return f"{q.numerator}/{q.denominator}"
    except ValueError:
        return f"{Decimal(q.numerator)}/{Decimal(q.denominator)}"


def _pretty_rational(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _require(cond: bool, msg: str):
    """The package's argument check: ValueError(msg) unless cond holds."""
    if not cond:
        raise ValueError(msg)


def _require_at_least(name: str, value, least: int):
    _require(isinstance(value, int) and value >= least, f"{name} must be >= {least}, got {value!r}")


def _require_rs(r, s):
    _require(
        isinstance(r, int) and isinstance(s, int) and r >= s >= 1,
        f"need integers r >= s >= 1, got r={r!r}, s={s!r}",
    )


def falling_scalar(a, k: int):
    """Classical falling factorial a(a-1)...(a-k+1); empty product is 1."""
    out = 1
    for i in range(k):
        out = out * (a - i)
    return out


def rising_scalar(a, k: int):
    """Classical rising factorial a(a+1)...(a+k-1); empty product is 1."""
    out = 1
    for i in range(k):
        out = out * (a + i)
    return out


class Poly:
    """Polynomial over one rung of the tower, in canonical form: the
    coefficients ascend by degree with no trailing zeros, so equality and
    hashing are structural.

    A rung only names its coefficient ring: ``_coeff`` coerces one
    coefficient (or evaluation point) and raises TypeError otherwise,
    ``_lift`` turns a lower-rung operand into a coefficient or returns
    None, and ``_ZERO`` is the ring's zero.  An operand that neither is
    this rung nor lifts to it (a higher rung, a float, a str) gives
    NotImplemented, so Python hands the operation to the other side.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs=()):
        cs = [self._coeff(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self._coeffs = tuple(cs)

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls((1,))

    @classmethod
    def constant(cls, value):
        return cls((value,))

    @classmethod
    def _coerce(cls, value):
        if isinstance(value, cls):
            return value
        c = cls._lift(value)
        return None if c is None else cls((c,))

    @property
    def coeffs(self) -> tuple:
        return self._coeffs

    @property
    def degree(self) -> int:
        return len(self._coeffs) - 1

    def is_zero(self) -> bool:
        return not self._coeffs

    def coefficient(self, i: int):
        return self._coeffs[i] if 0 <= i < len(self._coeffs) else self._ZERO

    def __call__(self, value):
        """Horner evaluation at a point of the coefficient ring; an XPoly
        evaluated at x still carries l."""
        point = self._coeff(value)
        acc = self._ZERO
        for c in reversed(self._coeffs):
            acc = acc * point + c
        return acc

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = max(len(self._coeffs), len(o._coeffs))
        return type(self)([self.coefficient(i) + o.coefficient(i) for i in range(n)])

    __radd__ = __add__

    def __neg__(self):
        return type(self)([-c for c in self._coeffs])

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not self._coeffs or not o._coeffs:
            return type(self)()
        out = [self._ZERO] * (len(self._coeffs) + len(o._coeffs) - 1)
        for i, a in enumerate(self._coeffs):
            for j, b in enumerate(o._coeffs):
                out[i + j] = out[i + j] + a * b
        return type(self)(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * (Fraction(1) / as_rational(other))

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        acc = self.one()
        for _ in range(n):
            acc = acc * self
        return acc

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._coeffs == o._coeffs

    def __hash__(self):
        # a constant hashes like its coefficient, so that x == y implies
        # hash(x) == hash(y) across the coercion boundary
        if len(self._coeffs) <= 1:
            return hash(self.coefficient(0))
        return hash(self._coeffs)

    def __bool__(self):
        return bool(self._coeffs)


class LambdaPoly(Poly):
    """Polynomial in the deformation parameter with exact rational coefficients,
    held as ints when integral and as Fractions otherwise; evaluation gives a Fraction."""

    __slots__ = ()
    _ZERO = 0

    @staticmethod
    def _coeff(value):
        if type(value) is int:
            return value
        q = as_rational(value)
        return q.numerator if q.denominator == 1 else q

    @staticmethod
    def _lift(value):
        return value if isinstance(value, (int, Fraction)) else None

    def __call__(self, value):
        return Fraction(super().__call__(value))

    def __repr__(self):
        return f"LambdaPoly({list(self._coeffs)!r})"

    def __str__(self):
        if not self._coeffs:
            return "0"
        parts = []
        for d, c in enumerate(self._coeffs):
            if c == 0:
                continue
            mag = _pretty_rational(abs(c))
            if d == 0:
                body = mag
            elif d == 1:
                body = f"{mag}*l"
            else:
                body = f"{mag}*l^{d}"
            if not parts:
                parts.append(("-" if c < 0 else "") + body)
            else:
                parts.append(("- " if c < 0 else "+ ") + body)
        return " ".join(parts)


LAMBDA = LambdaPoly((0, 1))


class XPoly(Poly):
    """Polynomial in x whose coefficients are LambdaPoly."""

    __slots__ = ()
    _ZERO = LambdaPoly()
    _lift = staticmethod(LambdaPoly._coerce)

    @staticmethod
    def _coeff(value):
        lp = LambdaPoly._coerce(value)
        if lp is None:
            raise TypeError(f"cannot use {value!r} as a polynomial in l")
        return lp

    def at_lambda(self, lam_value) -> "XPoly":
        """Substitute a rational for l in every coefficient."""
        return XPoly([c(lam_value) for c in self._coeffs])

    def __repr__(self):
        return f"XPoly({[str(c) for c in self._coeffs]!r})"

    def __str__(self):
        if not self._coeffs:
            return "0"
        parts = []
        for d in range(len(self._coeffs) - 1, -1, -1):
            c = self._coeffs[d]
            if c.is_zero():
                continue
            cs = str(c)
            if " " in cs or cs.startswith("-"):
                cs = f"({cs})"
            if d == 0:
                parts.append(cs)
            elif d == 1:
                parts.append(f"{cs}*x")
            else:
                parts.append(f"{cs}*x^{d}")
        return " + ".join(parts)


X = XPoly((0, 1))


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


# ---------------------------------------------------------------------------
# int polynomials in (x, l), and series of their entries n! [t^n]

def _cleared(polys) -> tuple:
    """LambdaPolys as int lists of one length, and their common denominator."""
    den = lcm(*(c.denominator for p in polys for c in p.coeffs))
    width = max((len(p.coeffs) for p in polys), default=0)
    rows = [[c.numerator * (den // c.denominator) for c in p.coeffs] for p in polys]
    return [row + [0] * (width - len(row)) for row in rows], den


def _lambda_polys(rows, den: int = 1) -> list:
    """Int lists in l, divided by den, as LambdaPolys; an entry den divides stays an int."""
    return [LambdaPoly(row if den == 1 else [v // den if v % den == 0 else Fraction(v, den)
                                             for v in row]) for row in rows]


def _evaluate(rows: list, den: int, x: Fraction, lam: Fraction) -> Fraction:
    """Cleared rows over den at (x, l) = (p/q, u/v), by homogeneous Horner:
    one int numerator sum c_ij p^i q^(D-i) u^j v^(E-j) over den q^D v^E,
    reduced once."""
    def horner(coeffs, point):
        acc, scale = 0, 1
        for c in reversed(coeffs):
            acc, scale = acc * point.numerator + c * scale, scale * point.denominator
        return acc

    width = len(rows[0]) if rows else 0
    num = horner([horner(row, lam) for row in rows], x)
    return Fraction(num, den * x.denominator ** max(len(rows) - 1, 0)
                    * lam.denominator ** max(width - 1, 0))


def _add(p: list, q: list) -> list:
    return [[u + v for u, v in zip_longest(a, b, fillvalue=0)]
            for a, b in zip_longest(p, q, fillvalue=())]


def _mul(p: list, q: list, scale: int = 1) -> list:
    width = max(map(len, p), default=0) + max(map(len, q), default=0) - 1
    out = [[0] * width for _ in range(len(p) + len(q) - 1)]
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            row = out[i + j]
            for s, u in enumerate(a):
                for t, v in enumerate(b):
                    row[s + t] += scale * u * v
    return out


def _convolve(a: list, b: list, n: int) -> list:
    """sum_k C(n, k) a_k b_{n-k}: entry n of the product of two series."""
    return reduce(_add, (_mul(a[k], b[n - k], comb(n, k)) for k in range(n + 1)))


def _degenerate_exp(base: list, order: int) -> list:
    """e_l^b(t): the entries (b)_{n,l} = (b)_{n-1,l} (b - (n-1) l)."""
    _require(isinstance(order, int) and order >= 0, "order must be a nonnegative integer")
    out = [[[1]]]
    for n in range(1, order + 1):
        out.append(_mul(out[-1], _add(base, [[0, 1 - n]])))
    return out
