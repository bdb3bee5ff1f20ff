"""Bell polynomial assembly, recurrences and certified series evaluation."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degenstirling.algebra import LAMBDA, X, XPoly
from degenstirling.bell import (
    bell_rs_poly,
    dobinski_eval,
    dobinski_rr,
    gamma_formula_classical,
    r_bell_poly,
    r_bell_recurrence,
)
from degenstirling.stirling import stirling_rs_degenerate

from .oracles import dobinski_reference, dobinski_rr_reference, gamma_reference

TOL = Fraction(1, 10 ** 12)

orders = st.integers(min_value=1, max_value=4)
shapes = st.tuples(st.integers(1, 3), st.integers(1, 3)).map(lambda t: (max(t), min(t)))
positive_x = st.fractions(min_value=0, max_value=8, max_denominator=6).filter(lambda q: q > 0)
lambdas = st.fractions(min_value=-4, max_value=4, max_denominator=5)


def tolerances(least_digits: int, most_digits: int):
    """c / 10^e with 1 <= c <= 9 and e in [least_digits, most_digits]."""
    return st.builds(
        lambda c, e: Fraction(c, 10 ** e),
        st.integers(1, 9),
        st.integers(least_digits, most_digits),
    )


def _fields(res):
    return res.value, res.terms_used, res.tail_bound


def test_bell_rs_poly_examples():
    assert bell_rs_poly(0, 3, 2) == XPoly.one()
    assert bell_rs_poly(1, 1, 1) == X
    assert bell_rs_poly(2, 4, 2) == XPoly(
        [-2 * LAMBDA, -4 * LAMBDA, 12 - LAMBDA, 8, 1]
    )


def test_bell_rs_poly_validates():
    with pytest.raises(ValueError):
        bell_rs_poly(-1, 1, 1)
    with pytest.raises(ValueError):
        bell_rs_poly(1, 1, 2)


def test_r_bell_poly_examples():
    assert r_bell_poly(0, 5) == XPoly.one()
    assert r_bell_poly(1, 3) == X + 3
    assert r_bell_poly(2, 2) == X * X + (5 - LAMBDA) * X + 2 * (2 - LAMBDA)


def test_classical_bell_numbers_at_lambda_zero():
    # phi_n(1) at l = 0, r = 0 runs through the Bell numbers
    bells = [1, 1, 2, 5, 15, 52, 203, 877]
    for n, b in enumerate(bells):
        assert r_bell_poly(n, 0)(1)(0) == b


def test_recurrence_forms_match_direct_row():
    for r in range(5):
        for n in range(9):
            form_a, form_b = r_bell_recurrence(n, r)
            direct = r_bell_poly(n + 1, r)
            assert form_a == direct
            assert form_b == direct


def test_recurrence_at_x_equals_one():
    form_a, form_b = r_bell_recurrence(3, 2)
    direct = r_bell_poly(4, 2)(1)
    assert form_a(1) == direct
    assert form_b(1) == direct


def test_double_sum_matches_row_assembly():
    for r in range(1, 4):
        for n in range(1, 5):
            closed = [stirling_rs_degenerate(n, k, r, r) for k in range(n * r + 1)]
            assert bell_rs_poly(n, r, r) == XPoly(closed)


def test_dobinski_matches_exact_polynomial_value():
    grid = [
        (1, 1, 1, Fraction(1), Fraction(0)),
        (3, 1, 1, Fraction(1), Fraction(0)),
        (2, 4, 2, Fraction(1), Fraction(1, 2)),
        (2, 2, 1, Fraction(1, 2), Fraction(1)),
        (3, 3, 2, Fraction(2), Fraction(1, 3)),
    ]
    for n, r, s, x, lam in grid:
        exact = bell_rs_poly(n, r, s)(x)(lam)
        res = dobinski_eval(n, r, s, x, lam, TOL)
        assert res.tail_bound <= TOL
        assert abs(res.value - exact) <= res.tail_bound
        assert res.terms_used >= 1


def test_dobinski_takes_x_and_tol_past_the_int_digit_limit():
    # str() of either value would pass Python's int-to-str digit limit; the
    # checks must not format what they never print
    tiny = Fraction(1, 10 ** 5000)
    exact = bell_rs_poly(2, 3, 2)(1)(Fraction(1, 2))
    res = dobinski_eval(2, 3, 2, 1, Fraction(1, 2), tiny)
    assert res.tail_bound <= tiny
    assert abs(res.value - exact) <= res.tail_bound
    exact = bell_rs_poly(2, 3, 2)(tiny)(Fraction(1, 2))
    res = dobinski_eval(2, 3, 2, tiny, Fraction(1, 2), TOL)
    assert abs(res.value - exact) <= res.tail_bound <= TOL
    assert abs(gamma_formula_classical(2, 2, 1, tiny).value - 3) <= tiny


def test_dobinski_frozen_values():
    res = dobinski_eval(2, 4, 2, Fraction(1), Fraction(1, 2), TOL)
    assert abs(res.value - Fraction(35, 2)) <= res.tail_bound
    res = dobinski_eval(3, 1, 1, Fraction(1), Fraction(0), TOL)
    assert abs(res.value - 5) <= res.tail_bound


def test_dobinski_tail_is_honest_under_refinement():
    coarse = dobinski_eval(2, 3, 2, Fraction(3, 2), Fraction(1, 2), Fraction(1, 10 ** 6))
    fine = dobinski_eval(2, 3, 2, Fraction(3, 2), Fraction(1, 2), Fraction(1, 10 ** 18))
    assert abs(coarse.value - fine.value) <= coarse.tail_bound + fine.tail_bound


def test_dobinski_rejects_bad_inputs():
    with pytest.raises(ValueError):
        dobinski_eval(1, 1, 1, Fraction(0), Fraction(0), TOL)
    with pytest.raises(ValueError):
        dobinski_eval(1, 1, 1, Fraction(-1), Fraction(0), TOL)
    with pytest.raises(TypeError):
        dobinski_eval(1, 1, 1, 0.5, Fraction(0), TOL)
    with pytest.raises(ValueError):
        dobinski_eval(1, 1, 1, Fraction(1), Fraction(0), Fraction(0))
    with pytest.raises(ValueError):
        dobinski_eval(0, 1, 1, Fraction(1), Fraction(0), TOL)


def test_dobinski_rr_matches_exact_polynomial_value():
    grid = [
        (1, 1, Fraction(1), Fraction(0)),
        (1, 2, Fraction(1), Fraction(0)),
        (2, 1, Fraction(1), Fraction(1)),
        (3, 2, Fraction(1, 2), Fraction(1, 2)),
    ]
    for k, r, x, lam in grid:
        exact = bell_rs_poly(k, r, r)(x)(lam)
        res = dobinski_rr(k, r, x, lam, TOL)
        assert res.tail_bound <= TOL
        assert abs(res.value - exact) <= res.tail_bound


def test_dobinski_rr_frozen_values():
    assert abs(dobinski_rr(1, 1, Fraction(1), Fraction(0), TOL).value - 1) <= TOL
    assert abs(dobinski_rr(1, 2, Fraction(1), Fraction(0), TOL).value - 1) <= TOL
    assert abs(dobinski_rr(2, 1, Fraction(1), Fraction(1), TOL).value - 1) <= TOL


def test_dobinski_rr_validates():
    with pytest.raises(ValueError):
        dobinski_rr(0, 1, Fraction(1), Fraction(0), TOL)
    with pytest.raises(ValueError):
        dobinski_rr(1, 0, Fraction(1), Fraction(0), TOL)


def test_gamma_series_matches_classical_values():
    for n, r, s in [(1, 2, 1), (2, 2, 1), (2, 4, 2), (3, 3, 1), (2, 3, 2)]:
        exact = bell_rs_poly(n, r, s)(1)(0)
        res = gamma_formula_classical(n, r, s, TOL)
        assert res.tail_bound <= TOL
        assert abs(res.value - exact) <= res.tail_bound


def test_gamma_series_frozen_values():
    assert abs(gamma_formula_classical(1, 2, 1, TOL).value - 1) <= TOL
    assert abs(gamma_formula_classical(2, 2, 1, TOL).value - 3) <= TOL
    assert abs(gamma_formula_classical(2, 4, 2, TOL).value - 21) <= TOL


def test_gamma_series_requires_r_greater_than_s():
    with pytest.raises(ValueError):
        gamma_formula_classical(1, 2, 2, TOL)


# -- the integer series kernel against the Fraction-per-term reference -------

@settings(max_examples=80, deadline=None)
@given(orders, shapes, positive_x, lambdas, tolerances(12, 300))
def test_dobinski_eval_matches_fraction_reference(n, rs, x, lam, tol):
    r, s = rs
    assert _fields(dobinski_eval(n, r, s, x, lam, tol)) == dobinski_reference(n, r, s, x, lam, tol)


@settings(max_examples=60, deadline=None)
@given(orders, st.integers(1, 3), positive_x, lambdas, tolerances(12, 300))
def test_dobinski_rr_matches_fraction_reference(k, r, x, lam, tol):
    assert _fields(dobinski_rr(k, r, x, lam, tol)) == dobinski_rr_reference(k, r, x, lam, tol)


@settings(max_examples=30, deadline=None)
@given(orders, st.sampled_from([(2, 1), (3, 1), (3, 2)]), tolerances(12, 300))
def test_gamma_series_matches_fraction_reference(n, rs, tol):
    r, s = rs
    assert _fields(gamma_formula_classical(n, r, s, tol)) == gamma_reference(n, r, s, tol)


@pytest.mark.parametrize("tol", [Fraction(10 ** 9), Fraction(1, 2), Fraction(1, 1000)])
def test_series_match_fraction_reference_at_loose_tolerance(tol):
    # at a loose tolerance the sum often stops at its start index (at 10^9
    # always), so a start index off by one changes terms_used and the value
    for x in (Fraction(1, 3), Fraction(5, 2), Fraction(7)):
        for lam in (Fraction(0), Fraction(-3, 2), Fraction(7, 3)):
            for n, r, s in [(1, 1, 1), (2, 3, 1), (3, 2, 2), (4, 3, 2)]:
                got = _fields(dobinski_eval(n, r, s, x, lam, tol))
                assert got == dobinski_reference(n, r, s, x, lam, tol)
                got = _fields(dobinski_rr(n, r, x, lam, tol))
                assert got == dobinski_rr_reference(n, r, x, lam, tol)
    for n, r, s in [(1, 2, 1), (3, 3, 1), (4, 3, 2)]:
        assert _fields(gamma_formula_classical(n, r, s, tol)) == gamma_reference(n, r, s, tol)


@settings(max_examples=40, deadline=None)
@given(orders, shapes, positive_x, lambdas, tolerances(200, 300))
def test_tail_bound_is_honest_at_tight_tolerance(n, rs, x, lam, tol):
    # any sign of l: the certified bound must still dominate the distance
    # to the exact polynomial value
    r, s = rs
    res = dobinski_eval(n, r, s, x, lam, tol)
    assert abs(res.value - bell_rs_poly(n, r, s)(x)(lam)) <= res.tail_bound <= tol
    res = dobinski_rr(n, r, x, lam, tol)
    assert abs(res.value - bell_rs_poly(n, r, r)(x)(lam)) <= res.tail_bound <= tol


# -- the balanced series is the s = r case of the general one ---------------

def _assert_balanced_is_general(k, r, x, lam, tol):
    # the general series also counts its k = 0 term, which is zero at s = r
    balanced = dobinski_rr(k, r, x, lam, tol)
    general = dobinski_eval(k, r, r, x, lam, tol)
    assert balanced.value == general.value
    assert balanced.tail_bound == general.tail_bound
    assert balanced.terms_used == general.terms_used - 1


@settings(max_examples=60, deadline=None)
@given(orders, st.integers(1, 3), positive_x, lambdas, tolerances(12, 300))
def test_dobinski_rr_is_the_balanced_dobinski_eval(k, r, x, lam, tol):
    _assert_balanced_is_general(k, r, x, lam, tol)


@pytest.mark.parametrize("tol", [Fraction(10 ** 9), Fraction(1, 2)])
def test_dobinski_rr_is_the_balanced_dobinski_eval_at_loose_tolerance(tol):
    for x in (Fraction(1, 3), Fraction(5, 2), Fraction(7)):
        for lam in (Fraction(0), Fraction(-3, 2), Fraction(7, 3)):
            for k in range(1, 5):
                for r in range(1, 4):
                    _assert_balanced_is_general(k, r, x, lam, tol)
