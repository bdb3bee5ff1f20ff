"""Bell polynomial assembly, recurrences and certified series evaluation."""

from fractions import Fraction

import pytest

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

TOL = Fraction(1, 10 ** 12)


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
    for r in range(4):
        for n in range(6):
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
