"""Closed forms for the degenerate Stirling, shifted-Stirling and Lah rows.

The central objects are the coefficients S(n, k) defined by expanding the
step-l falling factorial with repetition pattern (r, s),

    prod_{j=1..n} [ (x + (j-1)(r-s))_s - (n-j) l ]  =  sum_k S(n, k) (x)_k,

together with the classical-basis conversions that define the shifted
(r-)Stirling and Lah families.  Everything here is exact LambdaPoly
arithmetic; classical values are only ever obtained by evaluating at l = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from .algebra import (
    LAMBDA,
    LambdaPoly,
    X,
    XPoly,
    divmod_linear,
    falling_scalar,
    gen_falling,
)

__all__ = [
    "BasisCoeffs",
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


def _require(cond: bool, msg: str):
    if not cond:
        raise ValueError(msg)


@lru_cache(maxsize=None)
def falling_basis_poly(k: int) -> XPoly:
    """(x)_k = x(x-1)...(x-k+1) as an XPoly."""
    _require(isinstance(k, int) and k >= 0, f"k must be >= 0, got {k!r}")
    p = XPoly.one()
    for i in range(k):
        p = p * (X - i)
    return p


@lru_cache(maxsize=None)
def rising_basis_poly(k: int) -> XPoly:
    """<x>_k = x(x+1)...(x+k-1) as an XPoly."""
    _require(isinstance(k, int) and k >= 0, f"k must be >= 0, got {k!r}")
    p = XPoly.one()
    for i in range(k):
        p = p * (X + i)
    return p


@lru_cache(maxsize=None)
def gen_falling_factorial(n: int) -> XPoly:
    """(x)_{n,l} = x(x-l)...(x-(n-1)l)."""
    _require(isinstance(n, int) and n >= 0, f"n must be >= 0, got {n!r}")
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


@lru_cache(maxsize=None)
def stirling2_degenerate(n: int, k: int) -> LambdaPoly:
    """Degenerate Stirling number of the second kind:

        S(n, k) = ((-1)^k / k!) sum_{p=0..k} (-1)^p C(k, p) (p)_{n,l}.

    Vanishes for k > n (the alternating sum kills polynomials of degree
    below k), reduces to the classical number at l = 0.
    """
    _require(isinstance(n, int) and n >= 0, f"n must be >= 0, got {n!r}")
    _require(isinstance(k, int) and k >= 0, f"k must be >= 0, got {k!r}")
    total = LambdaPoly.zero()
    for p in range(k + 1):
        sign = -1 if p % 2 else 1
        total = total + (sign * comb(k, p)) * gen_falling(p, n)
    return total * Fraction((-1) ** k, factorial(k))


@lru_cache(maxsize=None)
def stirling_rs_degenerate(n: int, k: int, r: int, s: int) -> LambdaPoly:
    """The (r, s) row entry via the alternating closed form

        S(n, k) = ((-1)^k / k!) sum_p (-1)^p C(k, p)
                  prod_{j=1..n} [ (p + (j-1)(r-s))_s - (n-j) l ].

    Returns the canonical zero for k > n*s, and checks that the formula
    itself vanishes there.
    """
    _require(isinstance(n, int) and n >= 1, f"n must be >= 1, got {n!r}")
    _require(isinstance(k, int) and k >= 0, f"k must be >= 0, got {k!r}")
    _require(
        isinstance(r, int) and isinstance(s, int) and r >= s >= 1,
        f"need integers r >= s >= 1, got r={r!r}, s={s!r}",
    )
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


@lru_cache(maxsize=None)
def stirling_rr_degenerate(n: int, k: int, r: int) -> LambdaPoly:
    """Balanced case r = s, where the product telescopes to a step-l falling
    factorial of the classical one:

        S(n, k) = ((-1)^k / k!) sum_p (-1)^p C(k, p) ((p)_r)_{n,l}.
    """
    _require(isinstance(n, int) and n >= 1, f"n must be >= 1, got {n!r}")
    _require(isinstance(k, int) and k >= 0, f"k must be >= 0, got {k!r}")
    _require(isinstance(r, int) and r >= 1, f"r must be >= 1, got {r!r}")
    total = LambdaPoly.zero()
    for p in range(k + 1):
        sign = -1 if p % 2 else 1
        total = total + (sign * comb(k, p)) * gen_falling(falling_scalar(p, r), n)
    return total * Fraction((-1) ** k, factorial(k))


@lru_cache(maxsize=None)
def _shifted_falling_row(n: int, r: int) -> BasisCoeffs:
    return to_falling_basis(gen_falling(X + r, n))


def r_stirling_degenerate(n: int, k: int, r: int) -> LambdaPoly:
    """Coefficient of (x)_k in the expansion of (x+r)_{n,l}; at r = 0 this
    is stirling2_degenerate."""
    _require(isinstance(n, int) and n >= 0, f"n must be >= 0, got {n!r}")
    _require(isinstance(k, int) and k >= 0, f"k must be >= 0, got {k!r}")
    _require(isinstance(r, int) and r >= 0, f"r must be >= 0, got {r!r}")
    return _shifted_falling_row(n, r).coefficient(k)


@lru_cache(maxsize=None)
def _lah_row(n: int) -> BasisCoeffs:
    p = XPoly.one()
    for i in range(1, n + 1):
        p = p * (X + (i - 1) - (n - i) * LAMBDA)
    return to_falling_basis(p)


@lru_cache(maxsize=None)
def _lah_signed_row(n: int) -> BasisCoeffs:
    p = XPoly.one()
    for i in range(1, n + 1):
        p = p * (X - (i - 1) + (n - i) * LAMBDA)
    return to_rising_basis(p)


def lah_degenerate(n: int, k: int) -> LambdaPoly:
    """Coefficient of (x)_k in prod_{i=1..n} (x + (i-1) - (n-i) l); the
    unsigned degenerate Lah number."""
    _require(isinstance(n, int) and n >= 0, f"n must be >= 0, got {n!r}")
    _require(isinstance(k, int) and k >= 0, f"k must be >= 0, got {k!r}")
    return _lah_row(n).coefficient(k)


def lah_signed_degenerate(n: int, k: int) -> LambdaPoly:
    """Coefficient of <x>_k in prod_{i=1..n} (x - (i-1) + (n-i) l); the
    signed companion, expanded in the rising basis."""
    _require(isinstance(n, int) and n >= 0, f"n must be >= 0, got {n!r}")
    _require(isinstance(k, int) and k >= 0, f"k must be >= 0, got {k!r}")
    return _lah_signed_row(n).coefficient(k)


def rr_basis_identity(n: int, r: int) -> BasisCoeffs:
    """Falling-basis expansion of ((x)_r)_{n,l}, the step-l falling factorial
    of the polynomial (x)_r.  Its coefficients reproduce the balanced row
    stirling_rr_degenerate(n, ., r)."""
    _require(isinstance(n, int) and n >= 1, f"n must be >= 1, got {n!r}")
    _require(isinstance(r, int) and r >= 1, f"r must be >= 1, got {r!r}")
    return to_falling_basis(gen_falling(falling_basis_poly(r), n))
