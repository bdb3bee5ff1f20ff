"""Generating-function identities as truncated-series cross checks."""

from math import factorial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from degenstirling import algebra, bell, serieslab
from degenstirling.algebra import LAMBDA, X, XPoly, _cleared, _mul, _trimmed
from degenstirling.bell import bell_rs_poly, r_bell_poly
from degenstirling.serieslab import (
    CheckReport,
    Mismatch,
    bell_egf_check,
    r_bell_egf_check,
    rr_egf_check,
    stirling_egf_check,
)
from degenstirling.stirling import _lambda_polys

from .series_tower import TruncatedSeries, degenerate_exp_series, series_exp


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


def test_stirling_egf_check_compares_only_the_power_it_returns(monkeypatch):
    # the k-th power costs k products from the chain, and only that power is
    # compared with the closed form: one report, not k + 1
    products, reports = [], []
    real_product, real_report = serieslab._product, serieslab._report

    def counted_product(a, b):
        products.append(b)
        return real_product(a, b)

    def counted_report(identity, order, pairs):
        reports.append(identity)
        return real_report(identity, order, pairs)

    monkeypatch.setattr(serieslab, "_product", counted_product)
    monkeypatch.setattr(serieslab, "_report", counted_report)
    for k in (0, 3, 10):
        products.clear()
        reports.clear()
        report = stirling_egf_check(k, 10)
        assert report.passed and report.identity == f"stirling2-egf[k={k}]"
        assert (len(products), reports) == (k, [f"stirling2-egf[k={k}]"])


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


# mostly zeros, as the series lab's operands are: _mul skips the zero entries
zero_heavy = st.lists(st.lists(st.sampled_from([0, 0, 0, 0, -2, 1, 3]), max_size=4), max_size=4)


@settings(max_examples=80, deadline=None)
@given(zero_heavy, zero_heavy, st.integers(-3, 3))
@example([], [[1]], 2)
@example([[0]], [[0, 0, 3]], -1)
@example([[0, 0, 3]], [[], [0], [2, 0, 1]], 3)
def test_lab_mul_matches_the_tower(p, q, scale):
    out = _mul(p, q, scale)
    assert len(out) == max(len(p) + len(q) - 1, 0)
    assert XPoly(_lambda_polys(out)) == (
        XPoly(_lambda_polys(p)) * XPoly(_lambda_polys(q)) * scale)


@settings(max_examples=80, deadline=None)
@given(st.one_of(int_polys, zero_heavy))
@example([])
@example([[0]])
@example([[1, 0], [], [0, 0]])
def test_trimmed_is_the_canonical_form_of_the_tower(p):
    # the int tuples verify compares are those an XPoly holds
    assert _trimmed(p) == tuple(c.coeffs for c in XPoly(_lambda_polys(p)).coeffs)


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


def test_series_products_multiply_every_term_into_one_output(monkeypatch):
    # a product, a convolution entry, a degenerate exponential step and the
    # recurrence's forms each build one output that algebra._mac multiplies
    # every term into: no _mul matrix per term
    def refused(*args):
        raise RuntimeError("_mul called")

    for module in (algebra, serieslab, bell):
        monkeypatch.setattr(module, "_mul", refused, raising=False)
    a = [[[1]], [[0, 2], [1]], [[-1], [], [0, 0, 3]], [[0], [0, 1]]]
    b = [[[2]], [[1]], [[0, 1], [1, -1]], []]
    assert as_series(serieslab._product(a, b)) == as_series(a) * as_series(b)
    u = [[], [[0, 1], [1]], [[1], [0, -2]], [[], [], [2]]]
    assert as_series(serieslab._exp(u)) == series_exp(as_series(u))
    for base in ([[1]], [[0, -1]], [[1, -1]], [[0], [1, 2]], []):
        assert as_series(algebra._degenerate_exp(base, 5)) == degenerate_exp_series(
            XPoly(_lambda_polys(base)), 5)
    for n, r in ((0, 0), (2, 0), (3, 1), (4, 2)):
        phi, phi_next = ([_cleared(r_bell_poly(k, s).coeffs)[0] for k in range(n + 1)]
                         for s in (r, r + 1))
        forms = bell._r_bell_forms(n, r, phi, phi_next)
        assert [XPoly(_lambda_polys(form)) for form in forms] == [r_bell_poly(n + 1, r)] * 2


def test_lab_validates_the_order():
    with pytest.raises(ValueError, match="order must be a nonnegative integer"):
        serieslab.r_bell_egf_check(1, -1)
    with pytest.raises(ValueError, match="order must be a nonnegative integer"):
        serieslab.rr_egf_check(1, 2.5)


@pytest.mark.parametrize("check, args", [
    (serieslab.stirling_egf_check, (0,)),
    (serieslab.bell_egf_check, ()),
    (serieslab.r_bell_egf_check, (1,)),
    (serieslab.rr_egf_check, (1,)),
], ids=["stirling", "bell", "r-bell", "rr"])
def test_every_egf_check_names_a_negative_order(check, args):
    # a bad order is reported as the order, not as the k it bounds
    with pytest.raises(ValueError, match="^order must be a nonnegative integer$"):
        check(*args, order=-1)

