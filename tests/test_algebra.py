"""Ring, evaluation and series behaviour of the exact arithmetic tower."""

import operator
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from degenstirling.algebra import (
    LAMBDA,
    LambdaPoly,
    X,
    XPoly,
    _cleared,
    _horner,
    as_rational,
    falling_scalar,
    rational_str,
)

from .series_tower import (
    TruncatedSeries,
    at_lambda,
    degenerate_exp_series,
    gen_falling,
    rising_scalar,
    series_exp,
)

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)
lambda_polys = st.lists(rationals, max_size=3).map(LambdaPoly)
x_polys = st.lists(lambda_polys, max_size=3).map(XPoly)


def test_canonical_form_strips_trailing_zeros():
    assert LambdaPoly([1, 2, 0, 0]).coeffs == (Fraction(1), Fraction(2))
    assert LambdaPoly([0, 0]).is_zero()
    assert XPoly([LambdaPoly([0]), LambdaPoly([1])]).degree == 1
    assert XPoly([0, 0]).is_zero()


def test_rational_str_is_exact_past_the_int_digit_limit():
    assert rational_str(Fraction(3)) == "3/1"
    assert rational_str(Fraction(-6, 4)) == "-3/2"
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    big = Fraction(-(10 ** 6000) - 7, 10 ** 5000 + 1)
    assert rational_str(big) == f"-1{'0' * 5999}7/1{'0' * 4999}1"
    # the process-wide limit is left as it was
    assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == limit


def test_polynomial_text_is_exact_past_the_int_digit_limit(int_digit_limit):
    big = 10 ** 700 + 1
    lp = LambdaPoly([Fraction(-big, 3), big])
    xp = XPoly([1, lp])
    int_digit_limit(0)
    lifted = str(lp), str(xp)
    assert lifted[0] == f"-{big}/3 + {big}*l"
    int_digit_limit(640)
    assert (str(lp), str(xp)) == lifted


def test_lambda_poly_repr_is_exact_past_the_int_digit_limit(int_digit_limit):
    assert repr(LambdaPoly([])) == "LambdaPoly([])"
    assert repr(LambdaPoly([1, Fraction(-1, 2), 0, -3])) == "LambdaPoly([1, Fraction(-1, 2), 0, -3])"
    big = 10 ** 700 + 1
    lp = LambdaPoly([-big, Fraction(big, 3), Fraction(2, big)])
    int_digit_limit(0)
    lifted = repr(lp)
    assert lifted == f"LambdaPoly([-{big}, Fraction({big}, 3), Fraction(2, {big})])"
    int_digit_limit(640)
    assert repr(lp) == lifted


def test_x_polynomial_text_skips_zero_coefficients():
    assert str(XPoly.zero()) == "0"
    assert str(X * X + 1) == "1*x^2 + 1"


def test_negative_exponent_is_refused():
    with pytest.raises(ValueError, match="nonnegative"):
        LAMBDA ** -1


def test_floats_are_rejected():
    with pytest.raises(TypeError):
        LambdaPoly([0.5])
    with pytest.raises(TypeError):
        XPoly([0.25])


def test_as_rational_returns_a_fraction_as_it_is():
    q = Fraction(3, 7)
    assert as_rational(q) is q
    assert as_rational(3) == as_rational("3/1") == Fraction(3)
    with pytest.raises(TypeError):
        as_rational(0.5)


def test_scalar_equality_and_hash_agree():
    assert LambdaPoly.constant(5) == 5 == Fraction(5)
    assert hash(LambdaPoly.constant(5)) == hash(Fraction(5))
    assert XPoly.constant(5) == LambdaPoly.constant(5)
    assert hash(XPoly.constant(Fraction(1, 2))) == hash(Fraction(1, 2))


# a coefficient as an int, a Fraction, or a string such as "4/2" or "-3"
coefficient_inputs = st.one_of(
    st.integers(-40, 40),
    rationals,
    st.builds(lambda p, q: f"{p}/{q}", st.integers(-20, 20), st.integers(1, 6)),
    st.integers(-40, 40).map(str),
)
mixed_polys = st.lists(coefficient_inputs, max_size=4).map(LambdaPoly)


def _assert_canonical(p: LambdaPoly):
    # an integral coefficient is an int, any other a Fraction in lowest terms
    for c in p.coeffs:
        assert type(c) is (int if c.denominator == 1 else Fraction), repr(c)


@settings(max_examples=100)
@given(st.lists(coefficient_inputs, max_size=5))
def test_coefficients_are_ints_exactly_when_integral(inputs):
    p = LambdaPoly(inputs)
    _assert_canonical(p)
    assert p == LambdaPoly([Fraction(c) for c in inputs])
    assert list(p.coeffs) == [Fraction(c) for c in inputs][:len(p.coeffs)]


@settings(max_examples=100)
@given(mixed_polys, mixed_polys, coefficient_inputs.map(Fraction), st.integers(0, 3))
def test_arithmetic_keeps_coefficients_canonical(a, b, q, k):
    results = [a + b, a - b, a * b, -a, a ** k, a + q, q - a, q * a]
    if q:
        results.append(a / q)
    for p in results:
        _assert_canonical(p)
    if q:
        assert (a / q) * q == a


def test_an_integral_fraction_and_its_int_are_one_coefficient():
    for halves, ints in (([Fraction(4, 2)], [2]), ([Fraction(-6, 3), 0, "8/4"], [-2, 0, 2])):
        p, q = LambdaPoly(halves), LambdaPoly(ints)
        assert p == q and hash(p) == hash(q)
        assert (str(p), repr(p)) == (str(q), repr(q))
        assert all(type(c) is int for c in p.coeffs)
    assert hash(LambdaPoly([Fraction(4, 2)])) == hash(2) == hash(Fraction(2))
    assert repr(LambdaPoly([Fraction(4, 2), Fraction(1, 2)])) == "LambdaPoly([2, Fraction(1, 2)])"
    for bad in ([1.0], [Fraction(1, 2), 2.0]):
        with pytest.raises(TypeError):
            LambdaPoly(bad)
    with pytest.raises(TypeError):
        LAMBDA(1.0)


@settings(max_examples=100)
@given(mixed_polys, st.one_of(st.integers(-9, 9), rationals))
def test_evaluation_returns_a_fraction(p, point):
    value = p(point)
    assert type(value) is Fraction
    assert value == sum(Fraction(c) * Fraction(point) ** i for i, c in enumerate(p.coeffs))
    assert type(LambdaPoly()(Fraction(1, 2))) is type(LambdaPoly([3])(2)) is Fraction


def test_mixed_rung_operations_return_the_higher_rung():
    # rung of each operand: 0 scalar, 1 LambdaPoly, 2 XPoly
    operands = [
        (3, 0), (Fraction(-1, 2), 0),
        (2 - LAMBDA, 1), (LambdaPoly.constant(5), 1),
        (X * X - LAMBDA * X + 1, 2), (XPoly.constant(Fraction(1, 3)), 2),
    ]
    for a, ra in operands:
        for b, rb in operands:
            top = max(ra, rb)
            if top == 0:
                continue
            rung = (LambdaPoly, XPoly)[top - 1]
            la = a if ra == top else rung.constant(a)
            lb = b if rb == top else rung.constant(b)
            for op in (operator.add, operator.sub, operator.mul):
                got = op(a, b)
                assert type(got) is rung
                assert got.coeffs == op(la, lb).coeffs
            assert (a == b) is (la.coeffs == lb.coeffs)
    series = degenerate_exp_series(1, 3)
    assert type(X * series) is TruncatedSeries
    assert type(series * LAMBDA) is TruncatedSeries
    assert X * series == series * X
    for bad in (0.5, "1/2"):
        for poly in (LAMBDA, X):
            for op in (operator.add, operator.sub, operator.mul):
                with pytest.raises(TypeError):
                    op(poly, bad)
                with pytest.raises(TypeError):
                    op(bad, poly)
    assert LambdaPoly.constant("1/2") == Fraction(1, 2)
    with pytest.raises(TypeError):
        XPoly.constant("1/2")


def test_lambda_poly_arithmetic_examples():
    assert LAMBDA * LAMBDA == LambdaPoly([0, 0, 1])
    assert (12 - LAMBDA)(0) == 12
    assert (12 - LAMBDA)(Fraction(1, 2)) == Fraction(23, 2)
    assert (2 * LAMBDA + 1) - (2 * LAMBDA) == 1


def test_xpoly_evaluation_substitutes_outer_variable_first():
    p = (X - LAMBDA) * X
    assert p(3) == 9 - 3 * LAMBDA
    assert p(3)(Fraction(1, 2)) == Fraction(15, 2)


@settings(max_examples=60)
@given(lambda_polys, lambda_polys, lambda_polys)
def test_lambda_poly_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=40)
@given(x_polys, x_polys, x_polys)
def test_xpoly_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


points = st.fractions(min_value=-5, max_value=5, max_denominator=9)


@settings(max_examples=150)
@given(
    st.lists(st.lists(points, max_size=4).map(LambdaPoly), max_size=4).map(XPoly),
    points,
    points,
)
@example(XPoly(), Fraction(-3, 7), Fraction(5, 9))  # the zero polynomial
@example(XPoly([Fraction(2, 9), 0, Fraction(-7, 4)]), Fraction(-5, 6), Fraction(1, 3))  # width 1
@example(XPoly([Fraction(1, 3)]), 0, 0)
@example(X * X + LAMBDA * X, Fraction(-1, 2), 0)
@example(XPoly([LambdaPoly([0, 0, Fraction(5, 8)])]), 0, Fraction(-7, 9))
def test_evaluate_on_cleared_rows_matches_the_tower(p, xv, lam):
    # the nested integer homogeneous Horner that verify's Dobinski grid reads
    # the cleared rows by, one int numerator over den q^D v^E at (x, l) =
    # (a/q, u/v), against Poly.__call__ in Fraction arithmetic
    rows, den = _cleared(p.coeffs)
    (a, q), (u, v) = Fraction(xv).as_integer_ratio(), Fraction(lam).as_integer_ratio()
    num = _horner([_horner(row, u, v) for row in rows], a, q)
    assert type(num) is int
    width = len(rows[0]) if rows else 0
    value = Fraction(num, den * q ** max(len(rows) - 1, 0) * v ** max(width - 1, 0))
    assert value == p(xv)(lam)


@settings(max_examples=200)
@given(st.lists(st.integers(-10 ** 6, 10 ** 6), max_size=7),
       st.fractions(min_value=-20, max_value=20, max_denominator=50))
def test_horner_is_the_value_times_the_denominator_power(coeffs, point):
    # q^D c(p/q) for c of degree D = len(c) - 1, against the Fraction sum
    value = sum(c * point ** i for i, c in enumerate(coeffs))
    expected = value * Fraction(point.denominator) ** (len(coeffs) - 1)
    got = _horner(coeffs, point.numerator, point.denominator)
    assert type(got) is int and got == expected


def test_scalar_helpers():
    assert falling_scalar(5, 3) == 60
    assert falling_scalar(2, 3) == 0
    assert rising_scalar(Fraction(1, 2), 2) == Fraction(3, 4)
    assert falling_scalar(7, 0) == 1


def test_gen_falling_reduces_to_power_at_lambda_zero():
    for n in range(11):
        assert at_lambda(gen_falling(X, n), 0) == X ** n


def test_gen_falling_scalar_base():
    assert gen_falling(2, 2) == 2 * (2 - LAMBDA)
    assert gen_falling(-LAMBDA, 3) == (-LAMBDA) * (-2 * LAMBDA) * (-3 * LAMBDA)


def test_series_construction_and_mismatch_errors():
    one = TruncatedSeries.one(4)
    with pytest.raises(ValueError):
        one + TruncatedSeries.one(5)
    with pytest.raises(ValueError):
        one * TruncatedSeries.one(3)
    with pytest.raises(ValueError):
        TruncatedSeries(2, [1, 2, 3, 4])


def test_series_product_truncates_exactly():
    t = TruncatedSeries(2, [0, 1])
    a = TruncatedSeries.one(2) + t
    b = TruncatedSeries.one(2) - t
    assert a * b == TruncatedSeries(2, [XPoly.one(), XPoly.zero(), -XPoly.one()])


def test_degenerate_exp_series_coefficients():
    e = degenerate_exp_series(1, 4)
    assert e.coefficient(0) == XPoly.one()
    assert e.coefficient(2) == XPoly.constant((1 - LAMBDA) / 2)
    e3 = degenerate_exp_series(3, 3)
    assert e3.coefficient(2) == XPoly.constant(3 * (3 - LAMBDA) / 2)
    ex = degenerate_exp_series(X, 3)
    assert ex.coefficient(3) == X * (X - LAMBDA) * (X - 2 * LAMBDA) / 6


def test_degenerate_exp_additivity_in_the_exponent():
    # e_l^a(t) e_l^b(t) = e_l^(a+b)(t): the binomial identity for the
    # step-l falling factorials, exercised symbolically as well
    order = 8
    cases = [
        (1, 1, 2),
        (2, 3, 5),
        (1, -LAMBDA, 1 - LAMBDA),
        (X, 1, X + 1),
        (X, X + 1, 2 * X + 1),
    ]
    for a, b, total in cases:
        lhs = degenerate_exp_series(a, order) * degenerate_exp_series(b, order)
        assert lhs == degenerate_exp_series(total, order)


def test_degenerate_exp_lambda_product_example():
    prod = degenerate_exp_series(1, 4) * degenerate_exp_series(-LAMBDA, 4)
    assert prod.coefficient(1) == XPoly.constant(1 - LAMBDA)


def test_series_exp_requires_zero_constant_term():
    with pytest.raises(ValueError):
        series_exp(TruncatedSeries.one(3))


def test_series_exp_examples():
    order = 4
    em1 = degenerate_exp_series(1, order) - TruncatedSeries.one(order)
    s = series_exp(em1 * X)
    assert s.coefficient(0) == XPoly.one()
    assert s.coefficient(1) == X
    assert s.coefficient(2) * 2 == X * X + (1 - LAMBDA) * X


@st.composite
def zero_constant_series(draw):
    order = draw(st.integers(min_value=1, max_value=6))
    coeffs = [XPoly.zero()] + draw(
        st.lists(x_polys, min_size=order, max_size=order)
    )
    return TruncatedSeries(order, coeffs)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_series_exp_is_a_homomorphism(data):
    u = data.draw(zero_constant_series())
    v_coeffs = [XPoly.zero()] + [
        data.draw(x_polys) for _ in range(u.order)
    ]
    v = TruncatedSeries(u.order, v_coeffs)
    assert series_exp(u + v) == series_exp(u) * series_exp(v)
