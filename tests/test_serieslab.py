"""Generating-function identities as truncated-series cross checks."""

from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degenstirling import serieslab
from degenstirling.algebra import (
    LAMBDA,
    TruncatedSeries,
    X,
    XPoly,
    degenerate_exp_series,
    series_exp,
)
from degenstirling.bell import bell_rs_poly
from degenstirling.serieslab import (
    CheckReport,
    Mismatch,
    bell_egf_check,
    r_bell_egf_check,
    rr_egf_check,
    stirling_egf_check,
)
from degenstirling.stirling import _lambda_polys


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


# the integer lab against the public Fraction tower, its oracle

int_polys = st.lists(st.lists(st.integers(-3, 3), max_size=3), max_size=3)  # in (x, l)


def int_series(order, polys=int_polys):
    return st.lists(polys, min_size=order + 1, max_size=order + 1)


def as_series(entries) -> TruncatedSeries:
    """The series whose entries n! [t^n] are the lab's int polynomials."""
    return TruncatedSeries(
        len(entries) - 1,
        [XPoly(_lambda_polys(e, factorial(n))) for n, e in enumerate(entries)],
    )


@settings(max_examples=40, deadline=None)
@given(int_polys, st.integers(0, 8))
def test_lab_degenerate_exp_matches_the_tower(base, order):
    lab = serieslab._degenerate_exp(base, order)
    assert as_series(lab) == degenerate_exp_series(XPoly(_lambda_polys(base)), order)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_lab_product_matches_the_tower(data):
    order = data.draw(st.integers(0, 8))
    a, b = data.draw(int_series(order)), data.draw(int_series(order))
    assert as_series(serieslab._product(a, b)) == as_series(a) * as_series(b)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_lab_exp_matches_the_tower(data):
    order = data.draw(st.integers(0, 8))
    small = st.lists(st.lists(st.integers(-2, 2), max_size=2), max_size=2)
    u = [[], *data.draw(int_series(order, small))[1:]]
    assert as_series(serieslab._exp(u)) == series_exp(as_series(u))


def test_lab_validates_the_order():
    with pytest.raises(ValueError, match="order must be a nonnegative integer"):
        serieslab.r_bell_egf_check(1, -1)
    with pytest.raises(ValueError, match="order must be a nonnegative integer"):
        serieslab.rr_egf_check(1, 2.5)
