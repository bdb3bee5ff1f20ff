"""Generating-function identities as truncated-series cross checks."""

import pytest

from degenstirling.algebra import LAMBDA, X, XPoly
from degenstirling.bell import bell_rs_poly
from degenstirling.serieslab import (
    CheckReport,
    Mismatch,
    bell_egf_check,
    r_bell_egf_check,
    rr_egf_check,
    stirling_egf_check,
)


def test_stirling_egf_holds():
    for k in range(7):
        report = stirling_egf_check(k, order=8)
        assert report
        assert report.passed and report.first_mismatch is None


def test_stirling_egf_validates_k():
    with pytest.raises(ValueError):
        stirling_egf_check(11, order=10)
    with pytest.raises(ValueError):
        stirling_egf_check(-1)


def test_bell_egf_holds():
    assert bell_egf_check(order=8)


@pytest.mark.parametrize("order", range(9))
def test_bell_egf_is_the_r_zero_shifted_check(order):
    plain, shifted = bell_egf_check(order), r_bell_egf_check(0, order)
    assert plain.identity == "bell-egf"
    assert (plain.order, plain.passed, plain.first_mismatch) == (
        shifted.order, shifted.passed, shifted.first_mismatch
    )


def test_r_bell_egf_holds():
    for r in range(4):
        assert r_bell_egf_check(r, order=8)


def test_rr_egf_holds():
    for r in range(1, 4):
        assert rr_egf_check(r, order=6)


def test_rr_egf_low_order_coefficients():
    # the r = 2 series starts 1 + (x)_2 t + ..., so the n = 1 row is x^2
    report = rr_egf_check(2, order=3)
    assert report.passed
    assert bell_rs_poly(1, 2, 2) == X * X
    assert bell_rs_poly(2, 2, 2) == XPoly(
        [0, 0, 2 - LAMBDA, 4, 1]
    )


def test_report_is_falsy_on_mismatch():
    bad = CheckReport("demo", 4, False, Mismatch(2, 1, 0))
    assert not bad
    assert bad.first_mismatch.n == 2
