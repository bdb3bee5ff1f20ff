"""Generating-function cross checks over exact integer series.

Each check builds the left-hand side with series arithmetic only, builds
the right-hand side from the closed-form rows, and compares coefficient by
coefficient up to the requested order.  The two sides never share a
formula, so each check is an independent oracle for the other route.
A series is held as its entries n! [t^n], each an int polynomial in (x, l):
a list over the degree in x of int lists in l.  Nothing is divided until a
row is compared.  The Fraction tower (TruncatedSeries, series_exp,
degenerate_exp_series) builds the same series and is the tests' oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import reduce
from itertools import zip_longest
from math import comb, factorial
from typing import Optional

from .algebra import XPoly, _require, _require_at_least
from .bell import bell_rs_poly, r_bell_poly
from .stirling import (
    _basis_expand,
    _cleared,
    _lambda_polys,
    falling_basis_poly,
    stirling2_degenerate,
)

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
# int polynomials in (x, l), and series of their entries n! [t^n]

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


def _product(a: list, b: list) -> list:
    return [_convolve(a, b, n) for n in range(len(a))]


def _exp(u: list) -> list:
    """exp(U) for U_0 = 0, from Y' = U'Y: Y_{n+1} = sum_k C(n, k) U_{k+1} Y_{n-k}."""
    y = [[[1]]]
    for n in range(len(u) - 1):
        y.append(_convolve(u[1:], y, n))
    return y


def _degenerate_exp(base: list, order: int) -> list:
    """e_l^b(t): the entries (b)_{n,l} = (b)_{n-1,l} (b - (n-1) l)."""
    _require(isinstance(order, int) and order >= 0, "order must be a nonnegative integer")
    out = [[[1]]]
    for n in range(1, order + 1):
        out.append(_mul(out[-1], _add(base, [[0, 1 - n]])))
    return out


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
