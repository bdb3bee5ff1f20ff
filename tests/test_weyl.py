"""Normal ordering engine checked against a single-swap rewriting oracle."""

from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from degenstirling.algebra import LAMBDA, LambdaPoly
from degenstirling import weyl
from degenstirling.weyl import NormalForm, degenerate_product, extract_stirling

from .oracles import normal_order_letters, normal_order_power, normal_order_word
from .series_tower import at_lambda


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


def test_sum_difference_scalar_multiple_and_repr():
    # (a + a+)^2 = (a+)^2 + 2 a+ a + a^2 + 1
    field = NormalForm.ladder(0, 1) + NormalForm.ladder(1, 0)
    nf = field * field
    assert nf == NormalForm({(2, 0): 1, (1, 1): 2, (0, 2): 1, (0, 0): 1})
    assert (nf - nf).is_zero() and not nf.is_zero()
    assert 2 * nf == nf * 2 == nf + nf
    assert repr(nf) == "NormalForm({(2,0): 1, (1,1): 2, (0,2): 1, (0,0): 1})"


def test_invalid_powers_rejected():
    with pytest.raises(ValueError):
        NormalForm({(-1, 0): 1})
    with pytest.raises(ValueError):
        NormalForm({(0, Fraction(1, 2)): 1})


def test_zero_coefficients_dropped():
    nf = NormalForm({(1, 1): LAMBDA - LAMBDA, (0, 0): 3})
    assert nf.terms == {(0, 0): LambdaPoly.constant(3)}
    assert nf.coefficient(1, 1) == 0


def test_product_drops_cancelled_terms():
    # (a + a+)(a - a+) = a^2 - (a+ a + 1) + a+ a - (a+)^2: the a+ a terms cancel
    a, cdag = NormalForm.ladder(0, 1), NormalForm.ladder(1, 0)
    assert ((a + cdag) * (a - cdag)).terms == {(0, 2): 1, (2, 0): -1, (0, 0): -1}


def test_other_operands_are_not_implemented():
    nf = NormalForm.ladder(1, 1)
    for op in (lambda: nf + 1, lambda: nf - 1, lambda: nf * "x", lambda: "x" * nf):
        with pytest.raises(TypeError):
            op()
    assert (nf == 1) is False


def test_normal_form_text_is_exact_past_the_int_digit_limit(int_digit_limit):
    big = 10 ** 700 + 1
    nf = NormalForm({(2, 1): big, (0, 0): big * LAMBDA - 1})
    int_digit_limit(0)
    lifted = str(nf)
    assert lifted == f"NormalForm({{(2,1): {big}, (0,0): -1 + {big}*l}})"
    int_digit_limit(640)
    assert str(nf) == lifted


def test_normal_form_powers_are_written_exactly_past_the_int_digit_limit(int_digit_limit):
    # __init__ accepts such a power, so its text must not raise
    int_digit_limit(640)
    assert repr(NormalForm({(10 ** 700, 0): 1})) == f"NormalForm({{(1{'0' * 700},0): 1}})"
    assert repr(NormalForm({(2, 1): 3})) == "NormalForm({(2,1): 3})"


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
    assert at_lambda(degenerate_product(3, 2, 1), 0) == power


def test_degenerate_product_matches_rewriting_oracle():
    for n, r, s in [(1, 1, 1), (2, 1, 1), (2, 2, 1), (1, 2, 2), (2, 2, 2)]:
        expected = normal_order_power(r, s, n)
        assert at_lambda(degenerate_product(n, r, s), 0).terms == {
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
# wider l-coefficients than any of them, then two with r - s >= 2 and
# s >= 2 at larger n
_LIST_ENGINE_SHAPES = (
    (1, 3, 1), (1, 5, 1), (2, 2, 2), (2, 4, 2), (3, 1, 1), (3, 3, 3), (3, 5, 5), (5, 2, 1),
    (4, 4, 3), (5, 3, 2), (5, 5, 2), (7, 2, 2), (5, 5, 4), (7, 3, 3), (9, 2, 2), (8, 3, 2),
    (10, 2, 2), (7, 5, 3), (8, 4, 4), (15, 2, 1), (8, 5, 5), (10, 4, 2), (9, 4, 4), (17, 2, 2),
    (11, 4, 2), (16, 5, 1), (10, 5, 3), (15, 3, 2), (20, 4, 1), (19, 2, 2), (16, 3, 2), (20, 5, 1),
    (30, 5, 5), (40, 4, 3), (60, 2, 1), (30, 5, 2), (25, 6, 3),
)


@pytest.mark.parametrize("n, r, s", _LIST_ENGINE_SHAPES)
def test_packed_engine_matches_the_list_engine(n, r, s):
    # the packed row against the coefficient-list row it replaced, at
    # sizes the NormalForm fold above does not reach
    assert degenerate_product(n, r, s) == _list_engine(n, r, s)


@pytest.mark.parametrize("n, r, s", _LIST_ENGINE_SHAPES[:32] + ((20, 5, 5),))
def test_trusted_build_is_a_validated_normal_form(n, r, s):
    # rebuilding degenerate_product's terms through NormalForm changes
    # nothing, the keys lie on the diagonal, and every coefficient is a
    # nonzero polynomial of ints
    nf = degenerate_product(n, r, s)
    assert nf == NormalForm(nf.terms) and hash(nf) == hash(NormalForm(nf.terms))
    for (i, j), c in nf.terms.items():
        assert i - j == n * (r - s)
        assert type(c) is LambdaPoly and c.coeffs
        assert all(type(v) is int for v in c.coeffs)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.integers(1, 6), st.integers(1, 6))
def test_digit_width_bounds_the_l_minus_one_row(n, r, s):
    # b from P(j) / j! is never narrower than the width the l = -1 row of
    # the list engine needs, and at most 2 bits wider (P(j) / j! < e max e_j)
    r, s = max(r, s), min(r, s)
    at_minus_one = [sum(c * (-1) ** d for d, c in enumerate(lp.coeffs))
                    for lp in _list_engine(n, r, s).terms.values()]
    assert min(at_minus_one) > 0
    need = max(at_minus_one).bit_length() + 1
    assert need <= weyl._digit_width(n, r, s) <= need + 2


def _digit_loop(v, b, n):
    """The decode the offset form replaced: peel one signed b-bit digit at a
    time, n digits, and refuse anything left over."""
    half, mask = 1 << (b - 1), (1 << b) - 1
    coeffs = []
    for _ in range(n):
        d = ((v + half) & mask) - half
        coeffs.append(d)
        v = (v - d) >> b
    if v:
        raise ArithmeticError("left over")
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


@st.composite
def _packed_values(draw):
    # n signed b-bit digits, and a multiple of 2^(bn) on top that is zero
    # for an in-range value; or any int of about the same size
    b, n = draw(st.integers(1, 70)), draw(st.integers(1, 9))
    half = 1 << (b - 1)
    if draw(st.booleans()):
        digits = draw(st.lists(st.integers(-half, half - 1), min_size=n, max_size=n))
        extra = draw(st.one_of(st.just(0), st.integers(-3, 3)))
        v = sum(d << (b * i) for i, d in enumerate(digits)) + (extra << (b * n))
    else:
        v = draw(st.integers(-(1 << (b * n + 2)), 1 << (b * n + 2)))
    return v, b, n


@settings(max_examples=300, deadline=None)
@given(_packed_values())
# the decode's tight cases: digits [-2, -2, 1], where the b >= 2 bound on the
# top digit is exact, read as 3 of 5 digits; and b = 1, digits [-1, 0, -1]
@example((6, 2, 5))
@example((-5, 1, 3))
def test_offset_decode_is_the_digit_loop(case):
    v, b, n = case
    try:
        expected = _digit_loop(v, b, n)
    except ArithmeticError:
        with pytest.raises(ArithmeticError, match=f"entry 0 .* {b}-bit digits"):
            weyl._unpack([v], b, n)
    else:
        assert weyl._unpack([v], b, n) == [expected]


def test_offset_decode_names_the_entry_that_overflows():
    # with b = 4 and n = 2 the values run from -8 - 8*16 to 7 + 7*16;
    # zero is the empty list
    assert weyl._unpack([5, -3, 0, 119, -136], 4, 2) == [[5], [-3], [], [7, 7], [-8, -8]]
    for v in (120, -137):
        with pytest.raises(ArithmeticError):
            weyl._unpack([v], 4, 2)
    with pytest.raises(ArithmeticError, match="entry 1 of the packed row overflows 4-bit"):
        weyl._unpack([5, 1 << 8, 0], 4, 2)


def test_degenerate_product_validates_arguments():
    with pytest.raises(ValueError):
        degenerate_product(0, 1, 1)
    with pytest.raises(ValueError):
        degenerate_product(1, 1, 2)
    with pytest.raises(ValueError):
        degenerate_product(1, 1, 0)


def test_n_below_one_gives_the_shared_message():
    with pytest.raises(ValueError, match="^n must be >= 1, got 0$"):
        degenerate_product(0, 1, 1)
    with pytest.raises(ValueError, match="^n must be >= 1, got 0$"):
        extract_stirling(NormalForm.identity(), 0, 1, 1)


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
