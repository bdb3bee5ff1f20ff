"""Closed-form rows against brute-force expansion and counting oracles."""

from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degenstirling import stirling
from degenstirling.algebra import LAMBDA, LambdaPoly, X, XPoly
from degenstirling.stirling import (
    BasisCoeffs,
    falling_basis_poly,
    family_row,
    gen_falling_factorial,
    lah_degenerate,
    lah_signed_degenerate,
    r_stirling_degenerate,
    rising_basis_poly,
    rr_basis_identity,
    stirling2_degenerate,
    stirling_rr_degenerate,
    stirling_rs_degenerate,
    to_falling_basis,
    to_rising_basis,
)

from .oracles import (
    classical_lah,
    expand_in_basis,
    lah_by_expansion,
    set_partition_count,
    signed_lah_by_expansion,
)

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=3)
small_polys = st.lists(rationals, max_size=5).map(XPoly)


def test_basis_polynomials():
    assert falling_basis_poly(0) == XPoly.one()
    assert falling_basis_poly(2) == X * (X - 1)
    assert rising_basis_poly(3) == X * (X + 1) * (X + 2)
    assert gen_falling_factorial(2) == X * (X - LAMBDA)


def test_falling_basis_of_square():
    bc = to_falling_basis(X * X)
    assert bc.basis == "falling"
    assert bc.coefficients == (
        LambdaPoly.zero(),
        LambdaPoly.one(),
        LambdaPoly.one(),
    )
    assert bc.coefficient(7) == LambdaPoly.zero()


def test_rising_basis_of_square():
    # x^2 = <x>_2 - <x>_1
    bc = to_rising_basis(X * X)
    assert bc.coefficients == (
        LambdaPoly.zero(),
        -LambdaPoly.one(),
        LambdaPoly.one(),
    )


def test_basis_conversion_matches_plain_fraction_oracle():
    p = X ** 5 + 3 * (X ** 2) - 7
    plain = [Fraction(-7), Fraction(0), Fraction(3), Fraction(0), Fraction(0), Fraction(1)]
    got = [c.coefficient(0) for c in to_falling_basis(p).coefficients]
    assert got == expand_in_basis(plain, rising=False)
    got = [c.coefficient(0) for c in to_rising_basis(p).coefficients]
    assert got == expand_in_basis(plain, rising=True)


@settings(max_examples=50)
@given(small_polys)
def test_basis_round_trip(p):
    assert to_falling_basis(p).to_polynomial() == p
    assert to_rising_basis(p).to_polynomial() == p


fractional_lambda_polys = st.lists(
    st.fractions(min_value=-3, max_value=3, max_denominator=6), max_size=3
).map(LambdaPoly)
fractional_x_polys = st.lists(fractional_lambda_polys, max_size=5).map(XPoly)


@settings(max_examples=50)
@given(fractional_x_polys)
def test_basis_round_trip_clears_denominators(p):
    # coefficients with l and unlike denominators: the peel runs on int
    # lists over their common denominator
    for expand in (to_falling_basis, to_rising_basis):
        bc = expand(p)
        assert len(bc.coefficients) == p.degree + 1
        assert bc.to_polynomial() == p


def test_basis_coeffs_of_zero():
    bc = to_falling_basis(XPoly.zero())
    assert bc == BasisCoeffs((), "falling")
    assert bc.to_polynomial() == XPoly.zero()


def test_family_rows_run_to_the_degree_of_their_polynomial():
    shapes = {
        ("stirling2", 5): 5,
        ("stirling-rs", 3, 4, 2): 6,
        ("stirling-rr", 3, 2): 6,
        ("r-stirling", 4, 3): 4,
        ("lah", 4): 4,
        ("lah-signed", 4): 4,
    }
    for (name, *args), degree in shapes.items():
        row = family_row(name, *args)
        assert row.basis == stirling.FAMILIES[name].basis
        assert len(row.coefficients) == degree + 1
        assert row.coefficients[-1] == 1


def _registry_shapes(most_n: int, most_r: int):
    """(name, n, *params) for every family, 0 <= n <= most_n, r <= most_r
    and every valid s."""
    for name, family in stirling.FAMILIES.items():
        if family.params == ("r", "s"):
            grid = [(r, s) for r in range(1, most_r + 1) for s in range(1, r + 1)]
        elif family.params == ("r",):
            grid = [(r,) for r in range(0 if name == "r-stirling" else 1, most_r + 1)]
        else:
            grid = [()]
        for n in range(family.least_n, most_n + 1):
            for params in grid:
                yield (name, n, *params)


def test_family_rows_equal_their_polynomial_over_the_basis():
    # the integer kernel against the factor list multiplied out in x and
    # peeled by synthetic division
    for name, n, *params in _registry_shapes(10, 4):
        family = stirling.FAMILIES[name]
        expand = to_falling_basis if family.basis == "falling" else to_rising_basis
        assert family_row(name, n, *params) == expand(family.polynomial(n, *params)), (
            name, n, params,
        )


def _multiplied_out_in_xpoly(family, n, *params) -> XPoly:
    """The factor list multiplied out in the Fraction tower."""
    p = XPoly.one()
    for c, depth, d in family.factors(n, *params):
        piece = XPoly.one()
        for i in range(depth):
            piece = piece * (X + (c - i))
        p = p * (piece - d * LAMBDA)
    return p


def test_family_polynomial_matches_the_xpoly_product():
    # Family.polynomial multiplies on int lists; the tower does it in Fractions
    for name, n, *params in _registry_shapes(10, 4):
        family = stirling.FAMILIES[name]
        assert family.polynomial(n, *params) == _multiplied_out_in_xpoly(family, n, *params), (
            name, n, params,
        )


def test_stirling2_rows_follow_the_carlitz_recurrence():
    # S(n+1, k) = S(n, k-1) + (k - n l) S(n, k), with full l
    for n in range(13):
        for k in range(n + 3):
            previous = stirling2_degenerate(n, k - 1) if k else LambdaPoly.zero()
            assert stirling2_degenerate(n + 1, k) == previous + (
                k - n * LAMBDA
            ) * stirling2_degenerate(n, k), (n, k)


def test_family_polynomials_are_the_documented_products():
    assert stirling.FAMILIES["stirling2"].polynomial(3) == gen_falling_factorial(3)
    assert stirling.FAMILIES["stirling-rr"].polynomial(3, 2) == (
        falling_basis_poly(2) * (falling_basis_poly(2) - LAMBDA)
        * (falling_basis_poly(2) - 2 * LAMBDA)
    )
    assert stirling.FAMILIES["r-stirling"].polynomial(2, 3) == (X + 3) * (X + 3 - LAMBDA)
    assert stirling.FAMILIES["stirling-rs"].polynomial(2, 3, 2) == (
        (X * (X - 1) - LAMBDA) * ((X + 1) * X)
    )
    assert stirling.FAMILIES["lah"].polynomial(2) == (X - LAMBDA) * (X + 1)
    assert stirling.FAMILIES["lah-signed"].polynomial(2) == (X + LAMBDA) * (X - 1)


def test_family_row_validates_its_arguments():
    with pytest.raises(KeyError):
        family_row("nosuch", 1)
    with pytest.raises(TypeError):
        family_row("stirling-rs", 2, 4)
    with pytest.raises(ValueError):
        family_row("lah", -1)
    with pytest.raises(ValueError):
        family_row("r-stirling", 2, -1)


def test_stirling2_counts_set_partitions_at_lambda_zero():
    for n in range(9):
        for k in range(n + 2):
            assert stirling2_degenerate(n, k)(0) == set_partition_count(n, k)


def test_stirling2_degenerate_examples():
    assert stirling2_degenerate(2, 1) == 1 - LAMBDA
    assert stirling2_degenerate(3, 1) == (1 - LAMBDA) * (1 - 2 * LAMBDA)
    assert stirling2_degenerate(3, 2) == 3 - 3 * LAMBDA
    assert stirling2_degenerate(5, 7).is_zero()


def test_rs_reduces_to_plain_stirling_at_r_equals_s_equals_one():
    for n in range(1, 6):
        for k in range(n + 2):
            assert stirling_rs_degenerate(n, k, 1, 1) == stirling2_degenerate(n, k)


def test_rs_worked_values():
    assert stirling_rs_degenerate(2, 1, 2, 1) == 2 - LAMBDA
    row = [stirling_rs_degenerate(2, k, 4, 2) for k in range(5)]
    assert row == [
        -2 * LAMBDA,
        -4 * LAMBDA,
        12 - LAMBDA,
        LambdaPoly.constant(8),
        LambdaPoly.one(),
    ]


def test_rs_vanishes_beyond_ns():
    for n in range(1, 4):
        for r in range(1, 4):
            for s in range(1, r + 1):
                for k in range(n * s + 1, n * s + 5):
                    assert stirling_rs_degenerate(n, k, r, s).is_zero()


def test_rs_nonvanishing_beyond_ns_raises(monkeypatch):
    # a falling factorial that is not a polynomial in p breaks the
    # vanishing of the alternating sum; the check must survive python -O
    real = stirling.falling_scalar
    monkeypatch.setattr(stirling, "falling_scalar", lambda a, k: real(a, k) + (a == 0))
    with pytest.raises(ArithmeticError):
        stirling_rs_degenerate(1, 2, 1, 1)


def test_rs_validates_arguments():
    with pytest.raises(ValueError):
        stirling_rs_degenerate(0, 0, 1, 1)
    with pytest.raises(ValueError):
        stirling_rs_degenerate(1, 0, 1, 2)
    with pytest.raises(ValueError):
        stirling_rs_degenerate(1, 0, 1, 0)


def test_rs_lambda_degree_stays_below_n():
    for n in range(1, 5):
        for r in range(1, 4):
            for s in range(1, r + 1):
                for k in range(n * s + 1):
                    assert stirling_rs_degenerate(n, k, r, s).degree <= n - 1


def test_balanced_row_agrees_with_general_formula():
    for n in range(1, 5):
        for r in range(1, 4):
            for k in range(n * r + 1):
                assert stirling_rr_degenerate(n, k, r) == stirling_rs_degenerate(
                    n, k, r, r
                )


def test_balanced_examples_and_zeros():
    assert stirling_rr_degenerate(2, 2, 2) == 2 - LAMBDA
    for r in range(1, 6):
        row = [stirling_rr_degenerate(1, k, r) for k in range(r + 1)]
        assert row == [LambdaPoly.zero()] * r + [LambdaPoly.one()]
    for n in range(1, 6):
        for r in range(1, 4):
            for k in range(r):
                assert stirling_rr_degenerate(n, k, r).is_zero()


def test_rr_basis_identity_reproduces_balanced_rows():
    for n in range(1, 5):
        for r in range(1, 5):
            bc = rr_basis_identity(n, r)
            for k in range(n * r + 1):
                assert bc.coefficient(k) == stirling_rs_degenerate(n, k, r, r)


def test_r_stirling_at_r_zero_is_plain_stirling():
    for n in range(7):
        for k in range(n + 1):
            assert r_stirling_degenerate(n, k, 0) == stirling2_degenerate(n, k)


def test_r_stirling_first_rows():
    assert r_stirling_degenerate(1, 0, 3) == 3
    assert r_stirling_degenerate(1, 1, 3) == 1
    row = [r_stirling_degenerate(2, k, 1) for k in range(3)]
    assert row == [1 - LAMBDA, 3 - LAMBDA, LambdaPoly.one()]


def test_r_stirling_classical_limit_via_binomial_shift():
    # at l = 0 the defining polynomial is (x+r)^n, so the row must equal
    # sum_j C(n, j) r^(n-j) S(j, k)
    for n in range(6):
        for r in range(4):
            for k in range(n + 1):
                expected = sum(
                    comb(n, j) * r ** (n - j) * stirling2_degenerate(j, k)(0)
                    for j in range(n + 1)
                )
                assert r_stirling_degenerate(n, k, r)(0) == expected


def test_lah_row_examples():
    assert lah_degenerate(0, 0) == 1
    assert lah_degenerate(1, 1) == 1
    assert [lah_degenerate(2, k) for k in range(3)] == [
        -LAMBDA,
        2 - LAMBDA,
        LambdaPoly.one(),
    ]


def test_lah_equals_two_one_pattern():
    for n in range(1, 7):
        for k in range(n + 2):
            assert lah_degenerate(n, k) == stirling_rs_degenerate(n, k, 2, 1)


def test_lah_classical_limit():
    for n in range(7):
        for k in range(n + 2):
            want = classical_lah(n, k)
            assert want == lah_by_expansion(n, k)
            assert lah_degenerate(n, k)(0) == want


def test_signed_lah_is_the_sign_twisted_lah_row():
    # x -> -x and <-x>_k = (-1)^k (x)_k turn one product into the other
    for n in range(10):
        for k in range(n + 3):
            sign = -1 if (n - k) % 2 else 1
            assert lah_signed_degenerate(n, k) == sign * lah_degenerate(n, k)


def test_signed_lah_classical_limit():
    for n in range(7):
        for k in range(n + 2):
            assert lah_signed_degenerate(n, k)(0) == signed_lah_by_expansion(n, k)


def test_signed_lah_is_signed():
    for n in range(1, 6):
        for k in range(1, n + 1):
            signed = lah_signed_degenerate(n, k)(0)
            assert signed == (-1) ** (n - k) * classical_lah(n, k)
