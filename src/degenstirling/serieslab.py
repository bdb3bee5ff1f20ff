"""Generating-function cross checks over exact truncated series.

Each check builds the left-hand side with series arithmetic only (the
algebra layer), builds the right-hand side from the closed-form rows, and
compares coefficient by coefficient up to the requested order.  The two
sides never share a formula, so each check is an independent oracle for
the other route.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import factorial
from typing import Optional

from .algebra import (
    TruncatedSeries,
    X,
    XPoly,
    _require,
    _require_at_least,
    degenerate_exp_series,
    series_exp,
)
from .bell import bell_rs_poly, r_bell_poly
from .stirling import falling_basis_poly, stirling2_degenerate, to_falling_basis

__all__ = [
    "Mismatch",
    "CheckReport",
    "stirling_egf_check",
    "bell_egf_check",
    "r_bell_egf_check",
    "rr_egf_check",
]


@dataclass(frozen=True)
class Mismatch:
    n: int
    expected: object
    actual: object


@dataclass(frozen=True)
class CheckReport:
    identity: str
    order: int
    passed: bool
    first_mismatch: Optional[Mismatch]

    def __bool__(self) -> bool:
        return self.passed


def _report(identity: str, order: int, pairs) -> CheckReport:
    for n, expected, actual in pairs:
        if expected != actual:
            return CheckReport(identity, order, False, Mismatch(n, expected, actual))
    return CheckReport(identity, order, True, None)


def stirling_egf_check(k: int, order: int = 10) -> CheckReport:
    """Coefficient of t^n in (e_l(t) - 1)^k / k! against S(n, k)/n!."""
    _require(isinstance(k, int) and 0 <= k <= order, f"need 0 <= k <= order, got {k!r}")
    em1 = degenerate_exp_series(1, order) - TruncatedSeries.one(order)
    pw = TruncatedSeries.one(order)
    for _ in range(k):
        pw = pw * em1
    pw = pw * Fraction(1, factorial(k))
    pairs = (
        (
            n,
            XPoly.constant(stirling2_degenerate(n, k) / factorial(n)),
            pw.coefficient(n),
        )
        for n in range(order + 1)
    )
    return _report(f"stirling2-egf[k={k}]", order, pairs)


def bell_egf_check(order: int = 10) -> CheckReport:
    """n! times the t^n coefficient of exp(x (e_l(t) - 1)) against the
    degenerate Bell polynomial: the r = 0 case of r_bell_egf_check, since
    e_l^0(t) is the series 1."""
    return replace(r_bell_egf_check(0, order), identity="bell-egf")


def r_bell_egf_check(r: int, order: int = 10) -> CheckReport:
    """n! times the t^n coefficient of e_l^r(t) exp(x (e_l(t) - 1)) against
    the degenerate shifted Bell polynomial."""
    _require_at_least("r", r, 0)
    em1 = degenerate_exp_series(1, order) - TruncatedSeries.one(order)
    series = degenerate_exp_series(r, order) * series_exp(em1 * X)
    pairs = (
        (n, r_bell_poly(n, r), series.coefficient(n) * factorial(n))
        for n in range(order + 1)
    )
    return _report(f"r-bell-egf[r={r}]", order, pairs)


def rr_egf_check(r: int, order: int = 10) -> CheckReport:
    """Balanced-case generating function: expand ((x)_r)_{n,l} over the
    falling basis, substitute x^k for each (x)_k, and compare with the
    balanced Bell polynomial row."""
    _require_at_least("r", r, 1)
    series = degenerate_exp_series(falling_basis_poly(r), order)
    # sum c_k (x)_k read as sum c_k x^k: the coherent-state expectation,
    # where (a+)^k a^k contributes |z|^2k = x^k
    pairs = (
        (
            n,
            bell_rs_poly(n, r, r),
            XPoly(to_falling_basis(series.coefficient(n) * factorial(n)).coefficients),
        )
        for n in range(order + 1)
    )
    return _report(f"rr-egf[r={r}]", order, pairs)
