"""Degenerate Stirling, shifted-Stirling and Lah rows.

Each family is a generating polynomial in x, with coefficients in l, plus
a basis: its row is the polynomial's coefficients over the falling or
rising factorial basis.  The central one is the (r, s) row

    prod_{j=1..n} [ (x + (j-1)(r-s))_s - (n-j) l ]  =  sum_k S(n, k) (x)_k.

FAMILIES registers each family once, and family_row expands it with the
one basis converter, _basis_expand.  stirling_rs_degenerate, the paper's
alternating-sum closed form, shares no code with that route and is kept
as its oracle.  Everything is exact LambdaPoly arithmetic; classical
values are only ever obtained by evaluating at l = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from typing import Callable

from .algebra import (
    LAMBDA,
    LambdaPoly,
    X,
    XPoly,
    _require_at_least,
    _require_rs,
    divmod_linear,
    falling_scalar,
    gen_falling,
)

__all__ = [
    "BasisCoeffs",
    "FAMILIES",
    "family_row",
    "falling_basis_poly",
    "rising_basis_poly",
    "gen_falling_factorial",
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


@lru_cache(maxsize=None)
def falling_basis_poly(k: int) -> XPoly:
    """(x)_k = x(x-1)...(x-k+1) as an XPoly."""
    _require_at_least("k", k, 0)
    p = XPoly.one()
    for i in range(k):
        p = p * (X - i)
    return p


@lru_cache(maxsize=None)
def rising_basis_poly(k: int) -> XPoly:
    """<x>_k = x(x+1)...(x+k-1) as an XPoly."""
    _require_at_least("k", k, 0)
    p = XPoly.one()
    for i in range(k):
        p = p * (X + i)
    return p


def gen_falling_factorial(n: int) -> XPoly:
    """(x)_{n,l} = x(x-l)...(x-(n-1)l)."""
    _require_at_least("n", n, 0)
    return gen_falling(X, n)


@dataclass(frozen=True)
class BasisCoeffs:
    """Coefficients of a polynomial in the falling or rising factorial basis.

    The tuple has exactly degree+1 entries (empty for the zero polynomial);
    each entry is a LambdaPoly.
    """

    coefficients: tuple
    basis: str  # "falling" | "rising"

    def coefficient(self, k: int) -> LambdaPoly:
        cs = self.coefficients
        return cs[k] if 0 <= k < len(cs) else LambdaPoly.zero()

    def to_polynomial(self) -> XPoly:
        build = falling_basis_poly if self.basis == "falling" else rising_basis_poly
        acc = XPoly.zero()
        for k, c in enumerate(self.coefficients):
            acc = acc + build(k) * c
        return acc


def _basis_expand(p: XPoly, falling: bool) -> BasisCoeffs:
    # peel one basis element per round: c_k = q(point_k), then divide the
    # difference by (x - point_k); the remainder must vanish exactly
    coeffs = []
    q = p
    k = 0
    while not q.is_zero():
        point = Fraction(k if falling else -k)
        c = q(point)
        q, rem = divmod_linear(q - XPoly.constant(c), point)
        if not rem.is_zero():
            raise ArithmeticError("basis conversion left a nonzero remainder")
        coeffs.append(c)
        k += 1
    return BasisCoeffs(tuple(coeffs), "falling" if falling else "rising")


def to_falling_basis(p: XPoly) -> BasisCoeffs:
    """Expand p in the basis (x)_0, (x)_1, (x)_2, ... exactly."""
    return _basis_expand(p, falling=True)


def to_rising_basis(p: XPoly) -> BasisCoeffs:
    """Expand p in the basis <x>_0, <x>_1, <x>_2, ... exactly."""
    return _basis_expand(p, falling=False)


# ---------------------------------------------------------------------------
# the family registry

def _rs_product(n: int, r: int, s: int) -> XPoly:
    """prod_{j=1..n} [(x + (j-1)(r-s))_s - (n-j) l]."""
    p = XPoly.one()
    for j in range(1, n + 1):
        shifted = XPoly.one()
        c = (j - 1) * (r - s)
        for i in range(s):
            shifted = shifted * (X + (c - i))
        p = p * (shifted - (n - j) * LAMBDA)
    return p


def _lah_product(n: int, sign: int) -> XPoly:
    """prod_{i=1..n} (x + sign * ((i-1) - (n-i) l))."""
    p = XPoly.one()
    for i in range(1, n + 1):
        p = p * (X + sign * ((i - 1) - (n - i) * LAMBDA))
    return p


@dataclass(frozen=True)
class Family:
    """One coefficient family: the row for n is polynomial(n, *params)
    expanded over basis; check raises ValueError outside the domain."""

    params: tuple  # parameter names, in call order
    least_n: int
    polynomial: Callable[..., XPoly]
    basis: str = "falling"  # or "rising"
    check: Callable[..., None] = lambda *params: None


FAMILIES = {
    "stirling2": Family((), 0, gen_falling_factorial),  # (x)_{n,l}
    "stirling-rs": Family(("r", "s"), 1, _rs_product, check=_require_rs),
    "stirling-rr": Family(  # ((x)_r)_{n,l}, the (r, r) product telescoped
        ("r",), 1, lambda n, r: gen_falling(falling_basis_poly(r), n),
        check=lambda r: _require_at_least("r", r, 1),
    ),
    "r-stirling": Family(  # (x+r)_{n,l}
        ("r",), 0, lambda n, r: gen_falling(X + r, n),
        check=lambda r: _require_at_least("r", r, 0),
    ),
    "lah": Family((), 0, lambda n: _lah_product(n, 1)),
    "lah-signed": Family((), 0, lambda n: _lah_product(n, -1), "rising"),
}


@lru_cache(maxsize=None)
def family_row(name: str, n: int, *params) -> BasisCoeffs:
    """The row of a registered family: its generating polynomial for n and
    params (in the family's parameter order) over its basis, one entry per
    basis element up to the polynomial's degree."""
    family = FAMILIES[name]
    _require_at_least("n", n, family.least_n)
    family.check(*params)
    return _basis_expand(family.polynomial(n, *params), family.basis == "falling")


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


@lru_cache(maxsize=None)
def stirling_rs_degenerate(n: int, k: int, r: int, s: int) -> LambdaPoly:
    """The (r, s) row entry via the alternating closed form

        S(n, k) = ((-1)^k / k!) sum_p (-1)^p C(k, p)
                  prod_{j=1..n} [ (p + (j-1)(r-s))_s - (n-j) l ].

    Returns the canonical zero for k > n*s, and checks that the formula
    itself vanishes there.
    """
    _require_at_least("n", n, 1)
    _require_at_least("k", k, 0)
    _require_rs(r, s)
    total = LambdaPoly.zero()
    for p in range(k + 1):
        prod = LambdaPoly.one()
        for j in range(1, n + 1):
            prod = prod * (
                LambdaPoly.constant(falling_scalar(p + (j - 1) * (r - s), s))
                - (n - j) * LAMBDA
            )
        sign = -1 if p % 2 else 1
        total = total + (sign * comb(k, p)) * prod
    val = total * Fraction((-1) ** k, factorial(k))
    if k > n * s and not val.is_zero():
        raise ArithmeticError("alternating sum failed to vanish beyond n*s")
    return val


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
