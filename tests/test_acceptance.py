"""Acceptance gate: one test per release criterion, one printed line each.

Each criterion re-derives its expectation from an independent route
(brute-force oracle, series lab, exact polynomial evaluation) and checks
the library against it at the stated tolerance.  Run with -v (or -s for
the ACCEPT lines) to see one verdict per criterion.
"""

import json
from fractions import Fraction

from degenstirling import bell, cli, serieslab, stirling, weyl
from degenstirling.algebra import LAMBDA, LambdaPoly, X, XPoly

from .oracles import (
    classical_lah,
    lah_by_expansion,
    normal_order_power_fast,
    set_partition_count,
    signed_lah_by_expansion,
)

TOL_SERIES = Fraction(1, 10 ** 12)
TOL_GAMMA = Fraction(1, 10 ** 10)
LAM_GRID = (Fraction(0), Fraction(1, 2), Fraction(1))
X_GRID = (Fraction(1, 2), Fraction(1), Fraction(2))

# every (r, s) cell of the main grid: 1 <= s <= r <= 3
RS_PAIRS = [(r, s) for r in range(1, 4) for s in range(1, r + 1)]


def _accept(name: str, ok: bool):
    # the printed verdict shows under -s; the assert message carries the
    # same text into the failure report when a criterion breaks
    line = f"ACCEPT {name} {'PASS' if ok else 'FAIL'}"
    print(line)
    assert ok, line


def test_criterion_01_worked_example(capsys):
    code = cli.main(["normal-order", "--n", "2", "--r", "4", "--s", "2"])
    records = json.loads(capsys.readouterr().out)
    expected = [
        {"i": 8, "j": 4, "coeff": ["1/1"]},
        {"i": 7, "j": 3, "coeff": ["8/1"]},
        {"i": 6, "j": 2, "coeff": ["12/1", "-1/1"]},
        {"i": 5, "j": 1, "coeff": ["0/1", "-4/1"]},
        {"i": 4, "j": 0, "coeff": ["0/1", "-2/1"]},
    ]
    row = weyl.extract_stirling(weyl.degenerate_product(2, 4, 2), 2, 4, 2)
    ok = (
        code == 0
        and records == expected
        and row == [-2 * LAMBDA, -4 * LAMBDA, 12 - LAMBDA, LambdaPoly.constant(8), LambdaPoly.one()]
    )
    _accept("worked-example", ok)


def test_criterion_02_triple_oracle_equality():
    cells = 0
    ok = True
    for r, s in RS_PAIRS:
        for n in range(1, 6):
            engine = weyl.extract_stirling(weyl.degenerate_product(n, r, s), n, r, s)
            for k in range(n * s + 1):
                closed = stirling.stirling_rs_degenerate(n, k, r, s)
                kernel = stirling.family_row("stirling-rs", n, r, s).coefficient(k)
                ok = ok and closed == engine[k] == kernel
                cells += 1
    _accept("triple-oracle-equality", ok and cells >= 180)


def _factored_product(n: int, r: int, s: int) -> XPoly:
    lhs = XPoly.one()
    for j in range(1, n + 1):
        shift = (j - 1) * (r - s)
        f = XPoly.one()
        for i in range(s):
            f = f * (X + (shift - i))
        lhs = lhs * (f - (n - j) * LAMBDA)
    return lhs


def test_criterion_03_factored_basis_identity():
    ok = True
    for r, s in RS_PAIRS:
        for n in range(1, 6):
            lhs = _factored_product(n, r, s)
            rhs = XPoly.zero()
            for k in range(n * s + 1):
                rhs = rhs + stirling.falling_basis_poly(k) * stirling.stirling_rs_degenerate(n, k, r, s)
            ok = ok and lhs == rhs
            ok = ok and all(lhs(x) == rhs(x) for x in range(9))
    _accept("factored-basis-identity", ok)


def test_criterion_04_vanishing_beyond_ns():
    ok = True
    for r, s in RS_PAIRS:
        for n in range(1, 6):
            for k in range(n * s + 1, n * s + 6):
                ok = ok and stirling.stirling_rs_degenerate(n, k, r, s).is_zero()
    _accept("vanishing-beyond-ns", ok)


def test_criterion_05_classical_limits():
    ok = True
    for n in range(9):
        for k in range(n + 2):
            ok = ok and stirling.stirling2_degenerate(n, k)(0) == set_partition_count(n, k)
    for n in range(1, 7):
        for k in range(n + 2):
            want = classical_lah(n, k)
            ok = ok and want == lah_by_expansion(n, k)
            ok = ok and stirling.stirling_rs_degenerate(n, k, 2, 1)(0) == want
    for r, s in RS_PAIRS:
        for n in range(1, 6):
            brute = normal_order_power_fast(r, s, n)
            shift = n * (r - s)
            ok = ok and all(i - j == shift for i, j in brute)
            for k in range(n * s + 1):
                ok = ok and brute.get((shift + k, k), 0) == stirling.stirling_rs_degenerate(n, k, r, s)(0)
    _accept("classical-limits", ok)


def test_criterion_06_balanced_zeros_and_unit():
    ok = True
    for r in range(1, 4):
        for n in range(1, 6):
            for k in range(r):
                ok = ok and stirling.stirling_rr_degenerate(n, k, r).is_zero()
    for r in range(1, 6):
        ok = ok and stirling.stirling_rr_degenerate(1, r, r) == LambdaPoly.one()
    _accept("balanced-zeros-and-unit", ok)


def test_criterion_07_balanced_basis_rows():
    ok = True
    for r in range(1, 5):
        for n in range(1, 5):
            row = stirling.rr_basis_identity(n, r)
            ok = ok and all(
                row.coefficient(k) == stirling.stirling_rs_degenerate(n, k, r, r)
                for k in range(n * r + 1)
            )
    _accept("balanced-basis-rows", ok)


def test_criterion_08_dobinski_series():
    ok = True
    for r, s in RS_PAIRS:
        for n in range(1, 6):
            poly = bell.bell_rs_poly(n, r, s)
            for lam in LAM_GRID:
                for xv in X_GRID:
                    res = bell.dobinski_eval(n, r, s, xv, lam, TOL_SERIES)
                    exact = poly(xv)(lam)
                    ok = ok and abs(res.value - exact) <= TOL_SERIES
                    ok = ok and res.tail_bound <= TOL_SERIES
    for r in range(1, 4):
        for k in range(1, 6):
            poly = bell.bell_rs_poly(k, r, r)
            for lam in LAM_GRID:
                for xv in X_GRID:
                    res = bell.dobinski_rr(k, r, xv, lam, TOL_SERIES)
                    ok = ok and abs(res.value - poly(xv)(lam)) <= TOL_SERIES
        for n in range(1, 5):
            closed = [stirling.stirling_rs_degenerate(n, k, r, r) for k in range(n * r + 1)]
            ok = ok and bell.bell_rs_poly(n, r, r) == XPoly(closed)
    _accept("dobinski-series", ok)


def test_criterion_09_gamma_ratio_series():
    ok = True
    for r in range(2, 5):
        for s in range(1, r):
            for n in range(1, 5):
                exact = bell.bell_rs_poly(n, r, s)(1)(0)
                res = bell.gamma_formula_classical(n, r, s, TOL_GAMMA)
                ok = ok and abs(res.value - exact) <= TOL_GAMMA
    res = bell.gamma_formula_classical(2, 4, 2, TOL_GAMMA)
    ok = ok and abs(res.value - 21) <= TOL_GAMMA
    _accept("gamma-ratio-series", ok)


def test_criterion_10_egf_suite():
    ok = all(serieslab.stirling_egf_check(k, order=10) for k in range(7))
    ok = ok and serieslab.bell_egf_check(order=10)
    ok = ok and all(serieslab.r_bell_egf_check(r, order=10) for r in range(4))
    ok = ok and all(serieslab.rr_egf_check(r, order=10) for r in range(1, 4))
    _accept("egf-suite", bool(ok))


def test_criterion_11_recurrence_forms():
    ok = True
    for r in range(4):
        for n in range(9):
            form_a, form_b = bell.r_bell_recurrence(n, r)
            target = bell.r_bell_poly(n + 1, r)
            ok = ok and form_a == target and form_b == target
            ok = ok and form_a(1) == target(1) and form_b(1) == target(1)
    _accept("recurrence-forms", ok)


def test_criterion_12_lah_identities():
    ok = True
    for n in range(1, 7):
        for k in range(n + 2):
            ok = ok and stirling.lah_degenerate(n, k) == stirling.stirling_rs_degenerate(n, k, 2, 1)
            ok = ok and stirling.lah_degenerate(n, k)(0) == classical_lah(n, k)
            ok = ok and stirling.lah_signed_degenerate(n, k)(0) == signed_lah_by_expansion(n, k)
    _accept("lah-identities", ok)
