"""Generating-function cross checks over exact integer series.

Each check builds the left-hand side with series arithmetic only, builds
the right-hand side from the closed-form rows, and compares coefficient by
coefficient up to the requested order.  The two sides never share a
formula, so each check is an independent oracle for the other route.
A series is held as its entries n! [t^n] in algebra's int (x, l) list
format, whose _convolve and _degenerate_exp build the products and the
degenerate exponentials.  Nothing is divided until a row is compared.
The Fraction tower (TruncatedSeries, series_exp, degenerate_exp_series)
builds the same series and is the tests' oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import factorial
from typing import Optional

from .algebra import (
    XPoly,
    _cleared,
    _convolve,
    _degenerate_exp,
    _lambda_polys,
    _require,
    _require_at_least,
)
from .bell import bell_rs_poly, r_bell_poly
from .stirling import _basis_expand, falling_basis_poly, stirling2_degenerate

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


# ---------------------------------------------------------------------------
# series of int (x, l) entries n! [t^n]

def _product(a: list, b: list) -> list:
    return [_convolve(a, b, n) for n in range(len(a))]


def _exp(u: list) -> list:
    """exp(U) for U_0 = 0, from Y' = U'Y: Y_{n+1} = sum_k C(n, k) U_{k+1} Y_{n-k}."""
    y = [[[1]]]
    for n in range(len(u) - 1):
        y.append(_convolve(u[1:], y, n))
    return y


def stirling_egf_check(k: int, order: int = 10) -> CheckReport:
    """Coefficient of t^n in (e_l(t) - 1)^k / k! against S(n, k)/n!."""
    _require(isinstance(k, int) and 0 <= k <= order, f"need 0 <= k <= order, got {k!r}")
    em1 = [[], *_degenerate_exp([[1]], order)[1:]]
    pw = [[[1]], *[[]] * order]
    for _ in range(k):
        pw = _product(pw, em1)
    pairs = (
        (n, XPoly.constant(stirling2_degenerate(n, k) / factorial(n)),
         XPoly(_lambda_polys(pw[n], factorial(k) * factorial(n))))
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
    x_em1 = [[], *([[], *c] for c in _degenerate_exp([[1]], order)[1:])]
    series = _product(_degenerate_exp([[r]], order), _exp(x_em1))
    pairs = ((n, r_bell_poly(n, r), XPoly(_lambda_polys(series[n]))) for n in range(order + 1))
    return _report(f"r-bell-egf[r={r}]", order, pairs)


def rr_egf_check(r: int, order: int = 10) -> CheckReport:
    """Balanced-case generating function: expand ((x)_r)_{n,l} over the
    falling basis, substitute x^k for each (x)_k, and compare with the
    balanced Bell polynomial row."""
    _require_at_least("r", r, 1)
    series = _degenerate_exp(_cleared(falling_basis_poly(r).coeffs)[0], order)
    # sum c_k (x)_k read as sum c_k x^k: the coherent-state expectation,
    # where (a+)^k a^k contributes |z|^2k = x^k
    pairs = (
        (n, bell_rs_poly(n, r, r), XPoly(_lambda_polys(_basis_expand(series[n], True))))
        for n in range(order + 1)
    )
    return _report(f"rr-egf[r={r}]", order, pairs)
