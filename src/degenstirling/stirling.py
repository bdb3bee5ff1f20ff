"""Degenerate Stirling, shifted-Stirling and Lah rows.

Each family's row is the coefficients, over the falling or rising
factorial basis, of a product of factors (x + c)_depth - d l in x with
coefficients in l.  The central one is the (r, s) row

    prod_{j=1..n} [ (x + (j-1)(r-s))_s - (n-j) l ]  =  sum_k S(n, k) (x)_k.

FAMILIES registers each family as its factor list of (c, depth, d) and
its basis.  family_row absorbs the factors one linear piece at a time into
a row of int lists in l, without building the polynomial.
Family.polynomial multiplies the same list out in algebra's int (x, l)
list format, and the basis converter _basis_expand (to_falling_basis,
to_rising_basis) peels it by synthetic division in that format, over the
common denominator cleared once: the kernel's second route, which the
tests and serieslab's rr-egf use; _from_basis multiplies a row back out.
newton_row is the finite-difference route for every family: the factor
list's product at x = 0, 1, 2, ... (0, -1, -2, ... in the rising basis),
in int lists in l, and one forward-difference table built in place give
every Newton difference at 0.  For stirling-rs that is the paper's
alternating sum, which stirling_rs_degenerate reads.  It shares no code
with the kernel or the Weyl engine (weyl.degenerate_product); verify's
triple-oracle checks compare all three.  The kernel, Family.polynomial and
newton_row all read the factor list, so a wrong list is seen not by them
but by the Weyl engine (stirling-rs and lah rows), the series lab, bell's
Dobinski series, which keeps its own copy of the stirling-rs list, and
test_family_polynomials_are_the_documented_products.  Only family_row is
memoised.  Every result is exact; classical values are only ever obtained
by evaluating at l = 0.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from math import factorial

from .algebra import (
    LambdaPoly,
    X,
    XPoly,
    _LP_ZERO,
    _cleared,
    _lambda_polys,
    _mac,
    _require_at_least,
    _require_rs,
    falling_scalar,
)

__all__ = [
    "BasisCoeffs",
    "FAMILIES",
    "family_row",
    "newton_row",
    "falling_basis_poly",
    "to_falling_basis",
    "to_rising_basis",
    "stirling2_degenerate",
    "stirling_rs_degenerate",
    "stirling_rr_degenerate",
    "r_stirling_degenerate",
    "lah_degenerate",
    "lah_signed_degenerate",
    "rr_basis_identity",
]


# Bound on family_row, the only cache in the package, so that no process grows
# without limit; a full `degenstirling verify` fills 118 of its entries.
_CACHE_SIZE = 1024

_NOT_VANISHING = "alternating sum failed to vanish beyond n*s"


def falling_basis_poly(k: int) -> XPoly:
    """(x)_k = x(x-1)...(x-k+1) as an XPoly."""
    _require_at_least("k", k, 0)
    p = XPoly.one()
    for i in range(k):
        p = p * (X - i)
    return p


# basis: "falling" | "rising"
class BasisCoeffs(namedtuple("BasisCoeffs", "coefficients basis")):
    """Coefficients of a polynomial in the falling or rising factorial basis.

    The tuple has exactly degree+1 entries (empty for the zero polynomial);
    each entry is a LambdaPoly.
    """

    __slots__ = ()

    def coefficient(self, k: int) -> LambdaPoly:
        cs = self.coefficients
        return cs[k] if 0 <= k < len(cs) else _LP_ZERO

    def to_polynomial(self) -> XPoly:
        rows, den = _cleared(self.coefficients)
        return XPoly(_lambda_polys(_from_basis(rows, self.basis == "falling"), den))


def _from_basis(rows: list, falling: bool) -> list:
    """The inverse of _basis_expand: c_0 + (x - 0)(c_1 + (x - 1)(c_2 + ...))
    for the int lists in l rows, all of one length, with x + k when rising."""
    step = -1 if falling else 1
    acc = []
    for k in reversed(range(len(rows))):
        acc = [[u + step * k * v for u, v in zip(lo, hi)]
               for lo, hi in zip([rows[k], *acc], [*acc, [0] * len(rows[k])])]
    return acc


def _basis_expand(q: list, falling: bool) -> list:
    """An int polynomial in (x, l), a list over the degree in x of int lists
    in l all of one length, over the falling (or rising) basis, in ints:
    each round divides q by x - k (or x + k) synthetically; the remainder
    q(k) (or q(-k)) is the coefficient c_k, and the quotient is peeled next."""
    out = []
    point = 0
    while q:
        acc, quot = q[-1], []
        for a in reversed(q[:-1]):
            quot.append(acc)
            acc = [u + point * v for u, v in zip(a, acc)]
        out.append(acc)
        q = quot[::-1]
        point += 1 if falling else -1
    return out


def _to_basis(p: XPoly, basis: str) -> BasisCoeffs:
    # clear the denominators once, peel in ints, divide once at the end
    rows, den = _cleared(p.coeffs)
    return BasisCoeffs(tuple(_lambda_polys(_basis_expand(rows, basis == "falling"), den)), basis)


def to_falling_basis(p: XPoly) -> BasisCoeffs:
    """Expand p in the basis (x)_0, (x)_1, (x)_2, ... exactly."""
    return _to_basis(p, "falling")


def to_rising_basis(p: XPoly) -> BasisCoeffs:
    """Expand p in the basis <x>_0, <x>_1, <x>_2, ... exactly."""
    return _to_basis(p, "rising")


# ---------------------------------------------------------------------------
# the family registry

def _expand_factors(factors, falling: bool) -> tuple:
    """The product of the factors (x + c)_depth - d l over the falling (or
    rising) basis, in plain ints: one int coefficient list in l per basis
    element, all of one length.  Each linear piece x + a of (x + c)_depth =
    (x + c)(x + c - 1)...(x + c - depth + 1) is absorbed by

        (x + a)(x)_k = (x)_{k+1} + (k + a)(x)_k,
        (x + a)<x>_k = <x>_{k+1} + (a - k)<x>_k,

    then d l times the row the factor started from is subtracted.  For
    stirling2 this is Carlitz's S(n+1, k) = S(n, k-1) + (k - n l) S(n, k).
    No list is changed in place once built, so rows may share them.  The
    LambdaPolys are built once, at the end."""
    sign = 1 if falling else -1
    row = [[1]]
    for c, depth, d in factors:
        start = row
        for a in range(c, c - depth, -1):
            row = [[a * v for v in row[0]]] + [
                [u + (a + sign * k) * v for u, v in zip(row[k - 1], row[k])]
                for k in range(1, len(row))
            ] + [row[-1]]
        if d:
            row = [[*u, 0] for u in row]
            for k, coeffs in enumerate(start):
                row[k] = [u - d * v for u, v in zip(row[k], [0, *coeffs])]
    return tuple(LambdaPoly(coeffs) for coeffs in row)


# params: parameter names, in call order; factors: (n, *params) -> [(c, depth, d), ...];
# basis: "falling" (the default) or "rising"
class Family(namedtuple("Family", "params least_n factors basis check",
                        defaults=("falling", lambda *params: None))):
    """One coefficient family: the row for n is the product of the factors
    (x + c)_depth - d l listed by factors(n, *params), expanded over basis;
    check raises ValueError outside the domain."""

    __slots__ = ()

    def factors_for(self, n: int, *params) -> list:
        """The factor list for n and params; ValueError outside the domain."""
        _require_at_least("n", n, self.least_n)
        self.check(*params)
        return self.factors(n, *params)

    def polynomial(self, n: int, *params) -> XPoly:
        """The generating polynomial: the factor list multiplied out in x,
        as an XPoly built once at the end."""
        return XPoly(_lambda_polys(self._int_polynomial(n, *params)))

    def _int_polynomial(self, n: int, *params) -> list:
        """polynomial(n, *params) as an int (x, l) list: each linear piece x + a
        absorbed into p in place, then -d l times the factor's start."""
        p = [[1]]
        for c, depth, d in self.factors_for(n, *params):
            start = p[:]  # rows are replaced below, never changed
            for a in range(c, c - depth, -1):
                p.insert(0, [0] * len(p[0]))
                for i in range(len(p) - 1):
                    p[i] = [u + a * v for u, v in zip(p[i], p[i + 1])]
            p = [[*row, 0] for row in p]
            _mac(p, [[0, -d]], start)
        return p


FAMILIES = {
    "stirling2": Family((), 0, lambda n: [(0, 1, j) for j in range(n)]),  # (x)_{n,l}
    "stirling-rs": Family(
        ("r", "s"), 1, lambda n, r, s: [((j - 1) * (r - s), s, n - j) for j in range(1, n + 1)],
        check=_require_rs,
    ),
    "stirling-rr": Family(  # ((x)_r)_{n,l}, the (r, r) product telescoped
        ("r",), 1, lambda n, r: [(0, r, j) for j in range(n)],
        check=lambda r: _require_at_least("r", r, 1),
    ),
    "r-stirling": Family(  # (x+r)_{n,l}
        ("r",), 0, lambda n, r: [(r, 1, j) for j in range(n)],
        check=lambda r: _require_at_least("r", r, 0),
    ),
    # prod_i (x + (i-1) - (n-i) l), and prod_i (x - (i-1) + (n-i) l) over the rising basis
    "lah": Family((), 0, lambda n: [(i - 1, 1, n - i) for i in range(1, n + 1)]),
    "lah-signed": Family((), 0, lambda n: [(1 - i, 1, i - n) for i in range(1, n + 1)], "rising"),
}


@lru_cache(maxsize=_CACHE_SIZE)
def family_row(name: str, n: int, *params) -> BasisCoeffs:
    """The row of a registered family: its generating polynomial for n and
    params (in the family's parameter order) over its basis, one entry per
    basis element up to the polynomial's degree."""
    family = FAMILIES[name]
    coefficients = _expand_factors(family.factors_for(n, *params), family.basis == "falling")
    return BasisCoeffs(coefficients, family.basis)


def newton_row(name: str, n: int, *params, upto: int | None = None) -> list:
    """Entries 0..upto (default: the degree in x) of a registered family's
    row by finite differences: the factor list's product P(p) =
    prod [(p + c)_depth - d l] at p = 0..upto, as int lists in l, then one
    forward-difference table, so that entry k is Delta^k P(0) / k!.  In the
    rising basis <x>_k = (-1)^k (-x)_k, so entry k is (-1)^k Delta^k Q(0) / k!
    with Q(y) = P(-y), and entries past the degree vanish.  The factor list
    is the one family_row reads, so a wrong list is seen not here but by the
    Weyl engine (stirling-rs and lah rows), the series lab, bell's Dobinski
    series (stirling-rs) and test_family_polynomials_are_the_documented_products."""
    family = FAMILIES[name]
    factors = family.factors_for(n, *params)
    sign = 1 if family.basis == "falling" else -1
    upto = sum(depth for _, depth, _ in factors) if upto is None else upto
    _require_at_least("upto", upto, 0)
    table = []
    for p in range(upto + 1):
        prod = [1]
        for c, depth, d in factors:
            a = falling_scalar(sign * p + c, depth)
            prod = [a * u - d * v for u, v in zip([*prod, 0], [0, *prod])]
        table.append(prod)
    for k in range(1, upto + 1):  # table[i] becomes Delta^k P(i - k) for i >= k
        for i in range(upto, k - 1, -1):
            table[i] = [u - v for u, v in zip(table[i], table[i - 1])]
    return [_lambda_polys([row], sign ** k * factorial(k))[0] for k, row in enumerate(table)]


def _entry(row: BasisCoeffs, k: int) -> LambdaPoly:
    _require_at_least("k", k, 0)
    return row.coefficient(k)


def stirling2_degenerate(n: int, k: int) -> LambdaPoly:
    """Degenerate Stirling number of the second kind: the coefficient of
    (x)_k in (x)_{n,l}, or equivalently

        S(n, k) = ((-1)^k / k!) sum_{p=0..k} (-1)^p C(k, p) (p)_{n,l}.

    Vanishes for k > n, reduces to the classical number at l = 0.
    """
    return _entry(family_row("stirling2", n), k)


def stirling_rs_degenerate(n: int, k: int, r: int, s: int) -> LambdaPoly:
    """The (r, s) row entry via the alternating closed form

        S(n, k) = ((-1)^k / k!) sum_p (-1)^p C(k, p)
                  prod_{j=1..n} [ (p + (j-1)(r-s))_s - (n-j) l ],

    the k-th Newton difference at 0 of the defining product over k!, which
    picks out the coefficient of (x)_k because sum_p (-1)^(k-p) C(k, p)
    (p)_j = k! when j = k and 0 otherwise.  Entry k needs only P(0..k), so one
    call reads newton_row("stirling-rs", n, r, s, upto=min(k, n*s + 1))[-1]; its
    factor list is checked by the Weyl engine, the series lab, bell's Dobinski
    series and test_family_polynomials_are_the_documented_products.

    Returns the canonical zero for k > n*s, and checks that the formula
    itself vanishes there.
    """
    _require_at_least("k", k, 0)
    _require_rs(r, s)  # before n * s is formed
    entry = newton_row("stirling-rs", n, r, s, upto=min(k, n * s + 1))[-1]
    if k > n * s and entry:
        raise ArithmeticError(_NOT_VANISHING)
    return entry


def stirling_rr_degenerate(n: int, k: int, r: int) -> LambdaPoly:
    """Balanced case r = s, where the product telescopes to a step-l falling
    factorial of the classical one: the coefficient of (x)_k in
    ((x)_r)_{n,l}, or equivalently

        S(n, k) = ((-1)^k / k!) sum_p (-1)^p C(k, p) ((p)_r)_{n,l}.
    """
    return _entry(family_row("stirling-rr", n, r), k)


def r_stirling_degenerate(n: int, k: int, r: int) -> LambdaPoly:
    """Coefficient of (x)_k in the expansion of (x+r)_{n,l}; at r = 0 this
    is stirling2_degenerate."""
    return _entry(family_row("r-stirling", n, r), k)


def lah_degenerate(n: int, k: int) -> LambdaPoly:
    """Coefficient of (x)_k in prod_{i=1..n} (x + (i-1) - (n-i) l); the
    unsigned degenerate Lah number."""
    return _entry(family_row("lah", n), k)


def lah_signed_degenerate(n: int, k: int) -> LambdaPoly:
    """Coefficient of <x>_k in prod_{i=1..n} (x - (i-1) + (n-i) l); the
    signed companion, expanded in the rising basis."""
    return _entry(family_row("lah-signed", n), k)


def rr_basis_identity(n: int, r: int) -> BasisCoeffs:
    """Falling-basis expansion of ((x)_r)_{n,l}, the step-l falling factorial
    of the polynomial (x)_r: the balanced row stirling_rr_degenerate(n, ., r),
    which the closed form stirling_rs_degenerate(n, ., r, r) reproduces."""
    return family_row("stirling-rr", n, r)
