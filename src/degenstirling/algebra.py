"""Exact arithmetic tower used by everything else.

From the bottom up: arbitrary-precision rationals, polynomials in the
deformation parameter (printed ``l``) whose coefficients are ints when
integral and Fractions otherwise, and polynomials in ``x`` whose
coefficients are such polynomials.
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
and the format over one common denominator, _trimmed is the canonical
form in which verify compares them, and _horner reads them at a rational
point.  _mac, out += scale p q in place, is the one product; _sum_products
sizes one output for _mul, _convolve (entry n of a product of series) and
_degenerate_exp (the entries (b)_{n,l}) and multiplies every term into it.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction
from math import comb, lcm

__all__ = [
    "Poly",
    "LambdaPoly",
    "XPoly",
    "LAMBDA",
    "X",
    "as_rational",
    "rational_str",
    "falling_scalar",
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
    """rational_str without the denominator 1: "3", "-1/2"."""
    return rational_str(q).removesuffix("/1")


# The argument checks raise ValueError and build their message only when the
# check fails, naming the value exactly at any size: str() of an int past the
# interpreter's int-to-str digit limit would raise instead.

def _got(value) -> str:
    """An int as its digits at any size, a tuple entry by entry; anything else
    (a bool too) as its repr."""
    if type(value) is tuple:
        return f"({', '.join(map(_got, value))}{',' * (len(value) == 1)})"
    return _pretty_rational(value) if type(value) is int else repr(value)


def _require_at_least(name: str, value, least: int):
    if not (isinstance(value, int) and value >= least):
        raise ValueError(f"{name} must be >= {least}, got {_got(value)}")


def _require_positive(name: str, value: Fraction):
    if not value > 0:
        raise ValueError(f"{name} must be positive, got {_pretty_rational(value)}")


def _require_rs(r, s):
    if not (isinstance(r, int) and isinstance(s, int) and r >= s >= 1):
        raise ValueError(f"need integers r >= s >= 1, got r={_got(r)}, s={_got(s)}")


def _require_order(order):
    if not (isinstance(order, int) and order >= 0):
        raise ValueError("order must be a nonnegative integer")


def falling_scalar(a, k: int):
    """Classical falling factorial a(a-1)...(a-k+1); empty product is 1."""
    out = 1
    for i in range(k):
        out = out * (a - i)
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
        # _got writes the exact digits where repr() would stop at the digit limit
        cs = (f"Fraction({_got(c.numerator)}, {_got(c.denominator)})" if type(c) is Fraction
              else _got(c) for c in self._coeffs)
        return f"LambdaPoly([{', '.join(cs)}])"

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
# the zero a read past a row's end returns: LambdaPoly is immutable, so one object
_LP_ZERO = LambdaPoly()


class XPoly(Poly):
    """Polynomial in x whose coefficients are LambdaPoly."""

    __slots__ = ()
    _ZERO = _LP_ZERO
    _lift = staticmethod(LambdaPoly._coerce)

    @staticmethod
    def _coeff(value):
        lp = LambdaPoly._coerce(value)
        if lp is None:
            raise TypeError(f"cannot use {value!r} as a polynomial in l")
        return lp

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


def _trimmed(p: list) -> tuple:
    """The canonical form of an int (x, l) list, trailing zeros dropped in l
    and then in x: the coeffs tuples of XPoly(_lambda_polys(p))."""
    out = []
    for a in p:
        end = len(a)
        while end and not a[end - 1]:
            end -= 1
        out.append(tuple(a[:end]))
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def _horner(coeffs: list, p: int, q: int) -> int:
    """q^D c(p/q) for the int list c of degree D = len(c) - 1, by homogeneous
    Horner: sum c_i p^i q^(D-i), in ints."""
    acc, scale = 0, 1
    for c in reversed(coeffs):
        acc, scale = acc * p + c * scale, scale * q
    return acc


def _mac(out: list, p: list, q: list, scale: int = 1) -> None:
    """out += scale p q in place, skipping zero entries of scale p (all at scale 0)."""
    for i, a in enumerate(p):
        for s, u in enumerate(a):
            u *= scale
            if u:
                for j, b in enumerate(q, i):
                    row = out[j]
                    for t, v in enumerate(b, s):
                        row[t] += u * v


def _sum_products(terms: list) -> list:
    """sum scale p q over the (scale, p, q) of terms: one output with room for
    every row and entry of each product, and _mac multiplies each into it."""
    width = max([max(map(len, p), default=0) + max(map(len, q), default=0) for _, p, q in terms])
    out = [[0] * (width - 1) for _ in range(max([len(p) + len(q) for _, p, q in terms]) - 1)]
    for scale, p, q in terms:
        _mac(out, p, q, scale)
    return out


def _mul(p: list, q: list, scale: int = 1) -> list:
    return _sum_products([(scale, p, q)])


def _convolve(a: list, b: list, n: int) -> list:
    """sum_k C(n, k) a_k b_{n-k}: entry n of the product of two series, each
    of its n + 1 terms multiplied into one output."""
    return _sum_products([(comb(n, k), a[k], b[n - k]) for k in range(n + 1)])


def _degenerate_exp(base: list, order: int) -> list:
    """e_l^b(t): the entries (b)_{n,l} = (b)_{n-1,l} b + (1 - n) l (b)_{n-1,l}."""
    _require_order(order)
    out = [[[1]]]
    for n in range(1, order + 1):
        out.append(_sum_products([(1, base, out[-1]), (1 - n, [[0, 1]], out[-1])]))
    return out
