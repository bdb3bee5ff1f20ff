"""Normal ordering engine checked against a single-swap rewriting oracle."""

from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degenstirling.algebra import LAMBDA, LambdaPoly
from degenstirling.weyl import NormalForm, degenerate_product, extract_stirling

from .oracles import normal_order_letters, normal_order_power, normal_order_word


def test_defining_relation():
    a = NormalForm.ladder(0, 1)
    cdag = NormalForm.ladder(1, 0)
    assert a * cdag == NormalForm({(1, 1): 1, (0, 0): 1})


def test_number_operator_square():
    num = NormalForm.ladder(1, 1)
    assert num * num == NormalForm({(2, 2): 1, (1, 1): 1})


def test_two_by_two_contraction():
    # a^2 (c^dag)^2 = (c^dag)^2 a^2 + 4 c^dag a + 2
    left = NormalForm.ladder(0, 2)
    right = NormalForm.ladder(2, 0)
    assert left * right == NormalForm({(2, 2): 1, (1, 1): 4, (0, 0): 2})


def test_invalid_powers_rejected():
    with pytest.raises(ValueError):
        NormalForm({(-1, 0): 1})
    with pytest.raises(ValueError):
        NormalForm({(0, Fraction(1, 2)): 1})


def test_zero_coefficients_dropped():
    nf = NormalForm({(1, 1): LAMBDA - LAMBDA, (0, 0): 3})
    assert nf.terms == {(0, 0): LambdaPoly.constant(3)}
    assert nf.coefficient(1, 1) == 0


words = st.lists(st.sampled_from(["c", "a"]), min_size=0, max_size=8).map(tuple)


@settings(max_examples=60, deadline=None)
@given(words)
def test_product_matches_single_swap_rewriting(word):
    nf = NormalForm.identity()
    for letter in word:
        nf = nf * NormalForm.ladder(letter == "c", letter == "a")
    assert nf.terms == {
        key: LambdaPoly.constant(c) for key, c in normal_order_word(word).items()
    }


@settings(max_examples=60, deadline=None)
@given(words)
def test_letter_oracle_agrees_with_rewriting_oracle(word):
    assert normal_order_letters(word) == normal_order_word(word)


@settings(max_examples=30, deadline=None)
@given(words, words, words)
def test_product_is_associative(u, v, w):
    def nf_of(word):
        out = NormalForm.identity()
        for letter in word:
            out = out * NormalForm.ladder(letter == "c", letter == "a")
        return out

    a, b, c = nf_of(u), nf_of(v), nf_of(w)
    assert (a * b) * c == a * (b * c)


def test_degenerate_product_simplest_case():
    assert degenerate_product(1, 1, 1) == NormalForm({(1, 1): 1})
    assert degenerate_product(2, 1, 1) == NormalForm(
        {(2, 2): 1, (1, 1): 1 - LAMBDA}
    )


def test_degenerate_product_worked_row():
    nf = degenerate_product(2, 4, 2)
    expected = {
        (8, 4): LambdaPoly.one(),
        (7, 3): LambdaPoly.constant(8),
        (6, 2): 12 - LAMBDA,
        (5, 1): -4 * LAMBDA,
        (4, 0): -2 * LAMBDA,
    }
    assert nf.terms == expected


def test_degenerate_product_lambda_zero_is_plain_power():
    # at l = 0 the k-dependence drops out and the product collapses to
    # ((c^dag)^r a^s)^n
    base = NormalForm.ladder(2, 1)
    power = base * base * base
    assert degenerate_product(3, 2, 1).at_lambda(0) == power


def test_degenerate_product_matches_rewriting_oracle():
    for n, r, s in [(1, 1, 1), (2, 1, 1), (2, 2, 1), (1, 2, 2), (2, 2, 2)]:
        expected = normal_order_power(r, s, n)
        assert degenerate_product(n, r, s).at_lambda(0).terms == {
            key: LambdaPoly.constant(c) for key, c in expected.items()
        }


def test_degenerate_product_matches_general_product():
    # the diagonal engine against a plain fold of NormalForm products,
    # with the full l-dependence of every coefficient
    for n in range(1, 9):
        for r in range(1, 6):
            for s in range(1, r + 1):
                expected = NormalForm.identity()
                for k in range(n):
                    expected = expected * NormalForm({(r, s): 1, (r - s, 0): -k * LAMBDA})
                nf = degenerate_product(n, r, s)
                assert nf == expected, (n, r, s)
                assert all(not c.is_zero() for c in nf.terms.values())


def _list_engine(n, r, s):
    """The diagonal engine with each row entry held as an int coefficient
    list in l: every (j, t) absorption loops over the l-coefficients, and
    the weights are recomputed for every factor."""
    row = [[1]]
    for k in range(n):
        new = [[0] * (k + 1) for _ in range(len(row) + s)]
        for j, coeffs in enumerate(row):
            for t in range(min(j, r) + 1):
                w = factorial(t) * comb(j, t) * comb(r, t)
                for d, c in enumerate(coeffs):
                    new[j - t + s][d] += w * c
            if k:
                for t in range(min(j, r - s) + 1):
                    w = factorial(t) * comb(j, t) * comb(r - s, t)
                    for d, c in enumerate(coeffs, 1):
                        new[j - t][d] -= k * w * c
        row = new
    shift = n * (r - s)
    return NormalForm(
        {(shift + j, j): LambdaPoly(coeffs) for j, coeffs in enumerate(row) if any(coeffs)}
    )


# the 32 shapes of the normal-order benchmark workload, then three with
# wider l-coefficients than any of them
_LIST_ENGINE_SHAPES = (
    (1, 3, 1), (1, 5, 1), (2, 2, 2), (2, 4, 2), (3, 1, 1), (3, 3, 3), (3, 5, 5), (5, 2, 1),
    (4, 4, 3), (5, 3, 2), (5, 5, 2), (7, 2, 2), (5, 5, 4), (7, 3, 3), (9, 2, 2), (8, 3, 2),
    (10, 2, 2), (7, 5, 3), (8, 4, 4), (15, 2, 1), (8, 5, 5), (10, 4, 2), (9, 4, 4), (17, 2, 2),
    (11, 4, 2), (16, 5, 1), (10, 5, 3), (15, 3, 2), (20, 4, 1), (19, 2, 2), (16, 3, 2), (20, 5, 1),
    (30, 5, 5), (40, 4, 3), (60, 2, 1),
)


@pytest.mark.parametrize("n, r, s", _LIST_ENGINE_SHAPES)
def test_packed_engine_matches_the_list_engine(n, r, s):
    # the packed row against the coefficient-list row it replaced, at
    # sizes the NormalForm fold above does not reach
    assert degenerate_product(n, r, s) == _list_engine(n, r, s)


@pytest.mark.parametrize("n, r, s", _LIST_ENGINE_SHAPES[:32] + ((20, 5, 5),))
def test_trusted_build_is_a_validated_normal_form(n, r, s):
    # degenerate_product hands its terms to NormalForm unchecked: building
    # the same terms through the checks changes nothing, the keys lie on the
    # diagonal, and every coefficient is a nonzero polynomial of ints
    nf = degenerate_product(n, r, s)
    assert nf == NormalForm(nf.terms) and hash(nf) == hash(NormalForm(nf.terms))
    for (i, j), c in nf.terms.items():
        assert i - j == n * (r - s)
        assert type(c) is LambdaPoly and c.coeffs
        assert all(type(v) is int for v in c.coeffs)


def test_degenerate_product_validates_arguments():
    with pytest.raises(ValueError):
        degenerate_product(0, 1, 1)
    with pytest.raises(ValueError):
        degenerate_product(1, 1, 2)
    with pytest.raises(ValueError):
        degenerate_product(1, 1, 0)


def test_extract_stirling_worked_row():
    row = extract_stirling(degenerate_product(2, 4, 2), 2, 4, 2)
    assert row == [
        -2 * LAMBDA,
        -4 * LAMBDA,
        12 - LAMBDA,
        LambdaPoly.constant(8),
        LambdaPoly.one(),
    ]


def test_extract_stirling_rejects_off_diagonal():
    with pytest.raises(ValueError):
        extract_stirling(NormalForm.ladder(1, 1), 2, 4, 2)


def test_balanced_product_has_no_net_creation():
    nf = degenerate_product(3, 2, 2)
    assert all(i == j for i, j in nf.terms)
