"""Bell polynomial assembly, recurrences and certified series evaluation."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from degenstirling import bell
from degenstirling.algebra import LAMBDA, X, XPoly, falling_scalar
from degenstirling.bell import (
    _sum_series,
    bell_rs_poly,
    dobinski_eval,
    dobinski_rr,
    gamma_formula_classical,
    r_bell_poly,
    r_bell_recurrence,
)
from degenstirling.stirling import stirling_rs_degenerate

from .oracles import (
    _factored_ratio_bound,
    dobinski_reference,
    dobinski_rr_reference,
    gamma_reference,
)

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


@pytest.mark.parametrize("tol", [0, -1])
def test_gamma_series_requires_a_positive_tolerance(tol):
    with pytest.raises(ValueError, match="tol must be positive"):
        gamma_formula_classical(2, 3, 1, tol)


def test_gamma_series_names_a_tolerance_past_the_int_digit_limit():
    with pytest.raises(ValueError, match="^tol must be positive, got -10{5000}$"):
        gamma_formula_classical(2, 3, 1, -10 ** 5000)


@pytest.mark.parametrize("tol", [Fraction(1, 10 ** 300), Fraction(1, 2), Fraction(10),
                                 Fraction(1000), Fraction(10 ** 9)])
def test_gamma_series_is_the_dobinski_series_at_one_and_zero(tol):
    # one start index for both: at a loose tolerance the sum stops at it,
    # so a start rule of Gamma's own would change terms_used and the value
    for n in range(1, 7):
        for r in range(2, 7):
            for s in range(1, r):
                res = gamma_formula_classical(n, r, s, tol)
                assert res == dobinski_eval(n, r, s, 1, 0, tol)
                assert res.tail_bound <= tol


@pytest.mark.parametrize("x", [Fraction(1, 3), Fraction(1), Fraction(5, 2), Fraction(7),
                               Fraction(40, 3)])
def test_factored_start_is_the_first_index_of_the_fraction_majorant(x):
    # the reference's k1 is the first k >= depth with (k)_depth >= 2 drift;
    # from it, the first k where its Fraction majorant is <= 1/2
    for factors in range(6):
        for depth in range(1, 5):
            for drift in (Fraction(0), Fraction(1, 2), Fraction(3), Fraction(250, 7),
                          Fraction(10 ** 4, 7)):
                k, rho = _factored_ratio_bound(x, factors, depth, drift)
                while rho(k) > Fraction(1, 2):
                    k += 1
                assert bell._factored_start(x, factors, depth, drift) == k


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


@pytest.mark.parametrize("rs", [(4, 1), (4, 2), (5, 2), (5, 3), (6, 3)])
def test_gamma_series_matches_fraction_reference_at_wider_steps(rs):
    # r - s >= 2 with s >= 2: the Gamma ratios step by r - s inside each
    # of the s rising factorials, which no other Fraction-reference test reaches
    r, s = rs
    for n in (1, 2, 3):
        for tol in (Fraction(1, 10 ** 12), Fraction(1, 10 ** 100), Fraction(1, 10 ** 300)):
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


# -- the bit-length screen leaves the stopping test's verdict unchanged -----

def _unscreened_sum_series(coeff, p, q, scale, k0, bn, bd):
    """_sum_series with the exact cross-multiplied stopping test at every
    k >= k0 and no bit-length screen: the loop the screen must agree with."""
    num, den, pk = 0, scale, 1
    k = 0
    while True:
        if k:
            num *= q * k
            den *= q * k
        a = coeff(k) * pk
        num += a
        if k >= k0 and abs(a) * bd <= bn * den:
            return num, abs(a), den, k + 1
        pk *= p
        k += 1


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(-(10 ** 6), 10 ** 6) | st.just(0), min_size=1, max_size=12),
    st.integers(-40, 40).filter(bool),
    st.integers(1, 40),
    st.integers(1, 10 ** 9),
    st.integers(0, 12),
    st.integers(0, 3),
    st.integers(1, 2 ** 80),
    st.none() | st.tuples(st.integers(1, 2 ** 64), st.integers(1, 2 ** 4000)),
)
# a gap one bit too small skips this tie; a screen that reads a zero term's
# bit length skips the zero term that stops the second
@example([1], 1, 1, 3, 0, 0, 3, None)
@example([0], 1, 8, 1, 0, 1, 1, None)
def test_screened_stopping_test_matches_the_exact_one(coeffs, p, q, scale, k0, past,
                                                      scaled, budget):
    # past the list every coefficient is 0, which passes the exact test, so
    # both loops stop; the caller's halving guarantee is not needed for that
    def coeff(k):
        return coeffs[k] if k < len(coeffs) else 0

    k0 = min(k0, len(coeffs))
    if budget is None:
        # a budget equal to |t_k*| = |a_k*|/den_k* at k* >= k0, both sides
        # scaled by the same factor, so the products' bit lengths tie at k*
        star = k0 + past
        den = scale
        for k in range(1, star + 1):
            den *= q * k
        bn, bd = (abs(coeff(star) * p ** star) or 1) * scaled, den * scaled
    else:
        # budgets down to 2^-4000, where gap + bl(den) can be 0 or less, so
        # a zero term must pass without its bit length being compared
        bn, bd = budget
    args = (coeff, p, q, scale, k0, bn, bd)
    assert _sum_series(*args) == _unscreened_sum_series(*args)


# -- each series coefficient is its defining product -----------------------

def _main_series_coeff(call):
    """The coeff callable that call() hands _sum_series first: the main
    series, before _combine_with_exp sums exp(-x)."""
    seen = []
    real = bell._sum_series

    def capturing(coeff, *rest):
        seen.append(coeff)
        return real(coeff, *rest)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bell, "_sum_series", capturing)
        call()
    return seen[0]


# n <= 4 and s <= r <= 4, so k < s (a zero falling factorial) and range steps
# r - s >= 2 both occur
small_shapes = st.tuples(st.integers(1, 4), st.integers(1, 4)).map(lambda t: (max(t), min(t)))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), small_shapes, lambdas)
def test_series_coefficient_is_the_defining_product(n, rs, lam):
    r, s = rs
    coeff = _main_series_coeff(lambda: dobinski_eval(n, r, s, 1, lam, Fraction(1, 2)))
    u, v = lam.numerator, lam.denominator
    for k in range(61):
        product = 1
        for j in range(1, n + 1):
            product *= falling_scalar(k + (j - 1) * (r - s), s) * v - (n - j) * u
        assert coeff(k) == product, (k, n, r, s, lam)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), small_shapes.filter(lambda rs: rs[0] > rs[1]))
def test_gamma_coefficient_is_the_nested_product(n, rs):
    r, s = rs
    coeff = _main_series_coeff(lambda: gamma_formula_classical(n, r, s, Fraction(1, 2)))
    for k in range(61):
        product = 1
        for l in range(1, s + 1):
            for i in range(n):
                product *= k - l + 1 + i * (r - s)
        assert coeff(k) == product, (k, n, r, s)
