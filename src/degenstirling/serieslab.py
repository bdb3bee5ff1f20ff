"""Generating-function cross checks over exact integer series.

Each check builds the left-hand side with series arithmetic only, builds
the right-hand side from the closed-form rows, and compares coefficient by
coefficient up to the requested order.  The two sides never share a
formula, so each check is an independent oracle for the other route.
A series is held as its entries n! [t^n] in algebra's int (x, l) list
format, whose _convolve and _degenerate_exp build the products and the
degenerate exponentials.  Nothing is divided: a passing check compares
each entry with its row times n! as canonical int tuples, and only a
failing one builds the two XPolys its Mismatch prints.
The tests build the same series a second way, in the Fraction series
tower of tests/series_tower.py, and compare the two.
"""

from __future__ import annotations

from collections import namedtuple
from functools import reduce
from itertools import accumulate, islice, repeat
from math import factorial

from .algebra import (
    XPoly,
    _convolve,
    _degenerate_exp,
    _lambda_polys,
    _mul,
    _got,
    _require_at_least,
    _require_order,
    _trimmed,
)
from .bell import bell_rs_poly, r_bell_poly
from .stirling import _basis_expand, stirling2_degenerate

__all__ = [
    "Mismatch",
    "CheckReport",
    "stirling_egf_check",
    "bell_egf_check",
    "r_bell_egf_check",
    "rr_egf_check",
]


class Mismatch(namedtuple("Mismatch", "n expected actual")):
    __slots__ = ()


class CheckReport(namedtuple("CheckReport", "identity order passed first_mismatch")):
    __slots__ = ()

    def __bool__(self) -> bool:
        return self.passed


def _report(identity: str, order: int, pairs) -> CheckReport:
    # each pair: n, both sides as canonical int tuples, and a thunk for their XPolys
    for n, expected, actual, sides in pairs:
        if expected != actual:
            return CheckReport(identity, order, False, Mismatch(n, *sides()))
    return CheckReport(identity, order, True, None)


def _pairs(rows, entries, den=lambda n: 1):
    """_report's pairs for the int (x, l) lists rows and entries, both over den(n)."""
    for n, (row, entry) in enumerate(zip(rows, entries)):
        yield n, _trimmed(row), _trimmed(entry), lambda row=row, entry=entry, d=den(n): (
            XPoly(_lambda_polys(row, d)), XPoly(_lambda_polys(entry, d)))


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


def _egf_powers(order: int):
    """(e_l(t) - 1)^k for k = 0, 1, ..., order, each built from the last by
    one product, only once the caller asks for it."""
    em1 = [[], *_degenerate_exp([[1]], order)[1:]]
    return accumulate(repeat(em1, order), _product, initial=[[[1]], *[[]] * order])


def _stirling_egf_report(k: int, pw: list, order: int) -> CheckReport:
    # both sides times k! n!: k! S(n, k) against the entry n! [t^n] of the power
    fk = factorial(k)
    rows = ([[fk * c for c in stirling2_degenerate(n, k).coeffs]] for n in range(order + 1))
    return _report(f"stirling2-egf[k={k}]", order,
                   _pairs(rows, pw, lambda n: fk * factorial(n)))


def stirling_egf_check(k: int, order: int = 10) -> CheckReport:
    """Coefficient of t^n in (e_l(t) - 1)^k / k! against S(n, k)/n!."""
    _require_order(order)
    if not (isinstance(k, int) and 0 <= k <= order):
        raise ValueError(f"need 0 <= k <= order, got {_got(k)}")
    return _stirling_egf_report(k, next(islice(_egf_powers(order), k, None)), order)


def bell_egf_check(order: int = 10) -> CheckReport:
    """n! times the t^n coefficient of exp(x (e_l(t) - 1)) against the
    degenerate Bell polynomial: the r = 0 case of r_bell_egf_check, since
    e_l^0(t) is the series 1."""
    return r_bell_egf_check(0, order)._replace(identity="bell-egf")


def r_bell_egf_check(r: int, order: int = 10) -> CheckReport:
    """n! times the t^n coefficient of e_l^r(t) exp(x (e_l(t) - 1)) against
    the degenerate shifted Bell polynomial."""
    _require_at_least("r", r, 0)
    x_em1 = [[], *([[], *c] for c in _degenerate_exp([[1]], order)[1:])]
    series = _product(_degenerate_exp([[r]], order), _exp(x_em1))
    rows = ([c.coeffs for c in r_bell_poly(n, r).coeffs] for n in range(order + 1))
    return _report(f"r-bell-egf[r={r}]", order, _pairs(rows, series))


def rr_egf_check(r: int, order: int = 10) -> CheckReport:
    """Balanced-case generating function: expand ((x)_r)_{n,l} over the
    falling basis, substitute x^k for each (x)_k, and compare with the
    balanced Bell polynomial row."""
    _require_at_least("r", r, 1)
    series = _degenerate_exp(reduce(_mul, ([[-i], [1]] for i in range(r)), [[1]]), order)
    # sum c_k (x)_k read as sum c_k x^k: the coherent-state expectation,
    # where (a+)^k a^k contributes |z|^2k = x^k
    rows = ([c.coeffs for c in bell_rs_poly(n, r, r).coeffs] for n in range(order + 1))
    return _report(f"rr-egf[r={r}]", order,
                   _pairs(rows, (_basis_expand(e, True) for e in series)))
