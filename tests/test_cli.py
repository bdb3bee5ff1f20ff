"""End-to-end CLI behaviour: output bytes, exit codes, verification suites."""

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degenstirling import algebra, bell, cli, serieslab, stirling, weyl
from degenstirling.algebra import X, XPoly, rational_str

from .pins import PINS, ROW_PINS

README = Path(__file__).resolve().parent.parent / "README.md"


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_table_json_worked_row(capsys):
    code, out, _ = run(
        capsys, ["table", "stirling-rs", "--n", "2", "--r", "4", "--s", "2"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["family"] == "stirling-rs"
    assert doc["n"] == 2 and doc["r"] == 4 and doc["s"] == 2
    rows = {row["k"]: row["coeff"] for row in doc["rows"]}
    assert rows[0] == ["0/1", "-2/1"]
    assert rows[2] == ["12/1", "-1/1"]
    assert rows[4] == ["1/1"]


def test_table_json_is_canonical(capsys):
    code, out, _ = run(capsys, ["table", "lah", "--n", "4"])
    assert code == 0
    assert cli.canonical_json(json.loads(out)) == out.strip()


def test_table_csv_forms(capsys):
    code, out, _ = run(capsys, ["table", "stirling2", "--n", "0", "--format", "csv"])
    assert code == 0
    assert out == '0,"1"\n'
    code, out, _ = run(
        capsys,
        ["table", "stirling-rs", "--n", "2", "--r", "4", "--s", "2", "--format", "csv"],
    )
    lines = out.splitlines()
    assert lines[2] == '2,"12 - 1*l"'
    assert lines[4] == '4,"1"'


def test_table_eval_lambda(capsys):
    code, out, _ = run(
        capsys, ["table", "lah", "--n", "3", "--eval-lambda", "0"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["lambda"] == "0/1"
    assert [row["coeff"] for row in doc["rows"]] == ["0/1", "6/1", "6/1", "1/1"]


def test_table_eval_lambda_csv(capsys):
    code, out, _ = run(
        capsys,
        ["table", "stirling2", "--n", "2", "--eval-lambda", "1/2", "--format", "csv"],
    )
    assert code == 0
    assert out.splitlines()[1] == '1,"1/2"'


def test_table_missing_family_parameter(capsys):
    code, _, err = run(capsys, ["table", "stirling-rs", "--n", "2", "--r", "4"])
    assert code == 2
    assert "requires --s" in err


def test_table_semantic_error_exit_code(capsys):
    code, _, err = run(
        capsys, ["table", "stirling-rs", "--n", "1", "--r", "1", "--s", "2"]
    )
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize(
    "argv",
    [
        "table stirling2 --n -1",
        "table stirling-rr --n 1 --r -1",
        "table stirling-rs --n 2 --r 2 --s -1",
        "table bell-rs --n -1 --r 2 --s 1",
        "table r-bell --n -2 --r 0",
        "table lah-signed --n -1",
    ],
)
def test_table_outside_domain_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, argv.split())
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, flag",
    [
        ("table stirling2 --n 2 --r 3", "--r"),
        ("table lah --n 2 --s 1", "--s"),
        ("table lah-signed --n 2 --r 1 --s 1", "--r"),
        ("table stirling-rr --n 2 --r 1 --s 5", "--s"),
        ("table r-stirling --n 2 --r 1 --s 1", "--s"),
        ("table r-bell --n 2 --r 0 --s 2", "--s"),
    ],
)
def test_table_flag_the_family_does_not_take_is_a_usage_error(capsys, argv, flag):
    family = argv.split()[1]
    code, out, err = run(capsys, argv.split())
    assert code == 2
    assert out == ""
    assert err == f"error: family {family!r} takes no {flag}\n"


def test_bad_flags_exit_via_argparse(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["table", "nosuch-family", "--n", "1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["table", "lah", "--n", "1", "--eval-lambda", "abc"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        "table nosuch --n 1",
        "table lah --n 1.5",
        "table lah",
        "table lah --n 2 --bogus 1",
        "table lah --n 1 --eval-lambda abc",
    ],
)
def test_bad_flags_print_one_error_line(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv.split())
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        "dobinski --n 2 --r 2 --s 1 --x 1/2 --lambda -1/2",
        "table stirling-rs --n 3 --r 2 --s 1 --eval-lambda -1/2",
        # abbreviations that argparse accepts
        "dobinski --n 2 --r 2 --s 1 --x 1/2 --lam -1/2",
        "table stirling2 --n 2 --eval-lam -1/2",
    ],
)
def test_negative_fraction_after_a_space(capsys, argv):
    spaced = run(capsys, argv.split())
    joined = run(capsys, argv.replace(" -1/2", "=-1/2").split())
    assert spaced == joined
    assert spaced[0] == 0 and '"-1/2"' in spaced[1]


def test_abbreviated_option_gives_the_same_bytes(capsys):
    argv = "dobinski --n 2 --r 2 --s 1 --x 1/2 --lambda 1/2"
    full = run(capsys, argv.split())
    assert full[0] == 0
    assert run(capsys, argv.replace("--lambda", "--lam").split()) == full


def test_negative_x_after_a_space_is_a_domain_error(capsys):
    argv = "dobinski --n 1 --r 1 --s 1 --x -1/2 --lambda 1".split()
    assert run(capsys, argv) == (2, "", "error: x must be positive, got -1/2\n")


def test_normal_order_worked_product(capsys):
    code, out, _ = run(capsys, ["normal-order", "--n", "2", "--r", "4", "--s", "2"])
    assert code == 0
    records = json.loads(out)
    assert [(rec["i"], rec["j"]) for rec in records] == [
        (8, 4),
        (7, 3),
        (6, 2),
        (5, 1),
        (4, 0),
    ]
    assert records[2]["coeff"] == ["12/1", "-1/1"]
    assert records[4]["coeff"] == ["0/1", "-2/1"]
    assert cli.canonical_json(records) == out.strip()


def test_dobinski_subcommand(capsys):
    code, out, _ = run(
        capsys,
        [
            "dobinski", "--n", "2", "--r", "4", "--s", "2",
            "--x", "1", "--lambda", "1/2",
        ],
    )
    assert code == 0
    doc = json.loads(out)
    assert Fraction(doc["tail_bound"]) <= Fraction(doc["tol"])
    assert abs(Fraction(doc["value"]) - Fraction(35, 2)) <= Fraction(doc["tail_bound"])
    assert doc["terms_used"] >= 1


def test_dobinski_prints_a_value_past_the_int_digit_limit(capsys):
    # the value has more digits than Python's default int-to-str limit; it
    # is printed exactly, not reported as a usage error
    argv = ["dobinski", "--n", "2", "--r", "1", "--s", "1", "--x", "1", "--lambda", "1000"]
    code, out, err = run(capsys, argv)
    assert (code, err) == (0, "")
    doc = json.loads(out)
    res = bell.dobinski_eval(2, 1, 1, 1, 1000, Fraction(1, 10 ** 12))
    assert doc["value"] == rational_str(res.value)
    assert doc["tail_bound"] == rational_str(res.tail_bound)
    assert len(doc["value"]) > 4300


@pytest.mark.parametrize("flag", ["--x", "--tol"])
def test_dobinski_takes_a_rational_past_the_int_digit_limit(capsys, flag):
    # 1e-5000 is parsed without an int of 5000 digits, and its denominator is
    # past Python's int-to-str digit limit: the request is valid and exits 0
    values = {"--x": "1", "--tol": "1/1000000000000", flag: "1e-5000"}
    argv = ["dobinski", "--n", "2", "--r", "3", "--s", "2", "--lambda", "1/2"]
    code, out, err = run(capsys, argv + [t for item in values.items() for t in item])
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc[flag[2:]] == "1/1" + "0" * 5000
    x, tol = (Fraction(values[f]) for f in ("--x", "--tol"))
    res = bell.dobinski_eval(2, 3, 2, x, Fraction(1, 2), tol)
    assert (doc["value"], doc["tail_bound"]) == (rational_str(res.value),
                                                 rational_str(res.tail_bound))


_INT_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(_INT_DIGIT_LIMIT == 0, reason="no int digit limit is set")
def test_a_rational_past_the_int_parse_limit_names_the_limit(capsys):
    limit = _INT_DIGIT_LIMIT
    token = "1/1" + "0" * limit
    with pytest.raises(SystemExit) as exc:
        cli.main(["table", "lah", "--n", "1", "--eval-lambda", token])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: argument --eval-lambda: ")
    assert captured.err.count("\n") == 1
    assert f"more than {limit} digits" in captured.err and "int-parse limit" in captured.err
    assert "0" * 100 not in captured.err


def _same_bytes_past_the_int_digit_limit(capsys, int_digit_limit, argv, digits):
    # the output holds a number of `digits` digits, past the least limit 640,
    # and is the same with the limit lifted and at 640
    int_digit_limit(0)
    lifted = run(capsys, argv)
    assert lifted[0] == 0 and re.search(rf"\d{{{digits}}}", lifted[1])
    int_digit_limit(640)
    assert run(capsys, argv) == lifted


def test_csv_cells_are_exact_past_the_int_digit_limit(capsys, int_digit_limit):
    # the row's largest coefficient has 884 digits
    argv = "table stirling-rr --n 2 --r 400 --format csv".split()
    _same_bytes_past_the_int_digit_limit(capsys, int_digit_limit, argv, 884)


@pytest.mark.parametrize("argv, digits", [
    ("table stirling-rr --n 2 --r 400", 884),
    ("normal-order --n 2 --r 400 --s 400", 884),
])
def test_json_cells_are_exact_past_the_int_digit_limit(capsys, int_digit_limit, argv, digits):
    _same_bytes_past_the_int_digit_limit(capsys, int_digit_limit, argv.split(), digits)


@pytest.mark.parametrize("argv, name", [
    ("dobinski --n 1 --r 1 --s 1 --x=-1e5000 --lambda 0", "x"),
    ("dobinski --n 1 --r 1 --s 1 --x 1 --lambda 0 --tol=-1e5000", "tol"),
    ("verify --suite oracles --tol=-1e5000", "tol"),
])
def test_a_bad_value_past_the_int_digit_limit_is_named(capsys, argv, name):
    assert run(capsys, argv.split()) == (
        2, "", f"error: {name} must be positive, got -1{'0' * 5000}\n")


def test_normal_order_n_below_one_is_a_usage_error(capsys):
    argv = ["normal-order", "--n", "0", "--r", "1", "--s", "1"]
    assert run(capsys, argv) == (2, "", "error: n must be >= 1, got 0\n")


def test_dobinski_domain_error(capsys):
    code, _, err = run(
        capsys,
        ["dobinski", "--n", "2", "--r", "4", "--s", "2", "--x", "-1", "--lambda", "0"],
    )
    assert code == 2
    assert "positive" in err


def _verify(capsys, *extra):
    code, out, _ = run(capsys, ["verify", *extra])
    doc = json.loads(out)
    return code, doc


def test_verify_oracles_suite(capsys):
    code, doc = _verify(capsys, "--suite", "oracles", "--max-n", "2", "--max-r", "2")
    assert code == 0
    assert doc["pass"] is True
    assert all(c["pass"] for c in doc["checks"])
    names = {c["identity"] for c in doc["checks"]}
    assert "triple-oracle[n=2,r=2,s=1]" in names
    assert "balanced-first-row[r=2]" in names


def test_verify_egf_suite(capsys):
    code, doc = _verify(capsys, "--suite", "egf", "--order", "6", "--max-r", "2")
    assert code == 0
    assert all(c["pass"] for c in doc["checks"])
    assert any(c["identity"].startswith("rr-egf") for c in doc["checks"])


def test_verify_recurrence_suite(capsys):
    code, doc = _verify(capsys, "--suite", "recurrence", "--max-n", "3", "--max-r", "2")
    assert code == 0
    assert all(c["pass"] for c in doc["checks"])


def test_verify_dobinski_suite(capsys):
    code, doc = _verify(
        capsys, "--suite", "dobinski", "--max-n", "2", "--max-r", "2", "--tol", "1/1000000"
    )
    assert code == 0
    assert all(c["pass"] for c in doc["checks"])
    assert any(c["identity"].startswith("gamma-ratio") for c in doc["checks"])


@pytest.mark.parametrize("argv, digest", ROW_PINS)
def test_large_rows_are_pinned(capsys, argv, digest):
    # the bytes of rows far past the sizes the worked examples cover
    code, out, err = run(capsys, argv.split())
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_release_gate_output_is_pinned(capsys):
    # the bytes of the release gate; any change to a check, its name or its
    # order changes this digest
    code, out, err = run(capsys, ["verify", "--order", "6"])
    assert (code, err) == (0, "")
    assert len(json.loads(out)["checks"]) == 186
    assert hashlib.sha256(out.encode()).hexdigest() == dict(PINS)["verify --order 6"]


def test_larger_verify_grid_is_pinned(capsys):
    # rows up to n = 6, r = 4 through every suite, the dobinski reference
    # values among them
    code, out, err = run(capsys, ["verify", "--max-n", "6", "--max-r", "4", "--max-s", "4"])
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        dict(PINS)["verify --max-n 6 --max-r 4 --max-s 4"])


def _failed_dobinski_checks(capsys) -> list:
    code, out, err = run(capsys, ["verify", "--order", "6", "--suite", "dobinski"])
    assert (code, err) == (1, "")
    doc = json.loads(out)
    assert doc["pass"] is False
    assert len(doc["checks"]) == 60
    return sorted(c["identity"] for c in doc["checks"] if not c["pass"])


def test_verify_dobinski_fails_where_a_wrong_bell_row_is_used(capsys, monkeypatch):
    # x^2 added to the (2, 2, 1) Bell polynomial must fail the series check
    # and the gamma check whose exact value it is, and nothing else
    real = bell.bell_rs_poly

    def bumped(n, r, s):
        row = real(n, r, s)
        return row + X * X if (n, r, s) == (2, 2, 1) else row

    monkeypatch.setattr(bell, "bell_rs_poly", bumped)
    assert _failed_dobinski_checks(capsys) == [
        "dobinski-series[n=2,r=2,s=1]",
        "gamma-ratio-series[n=2,r=2,s=1]",
    ]


def test_verify_dobinski_fails_where_a_wrong_weyl_row_is_used(capsys, monkeypatch):
    # +1 on entry k = 2 of the Weyl row for (n, r) = (2, 3) must fail the
    # balanced series check that compares with it, and nothing else
    real = weyl.extract_stirling

    def bumped(nf, n, r, s):
        row = list(real(nf, n, r, s))
        if (n, r, s) == (2, 3, 3):
            row[2] = row[2] + 1
        return row

    monkeypatch.setattr(weyl, "extract_stirling", bumped)
    assert _failed_dobinski_checks(capsys) == ["dobinski-balanced[k=2,r=3]"]


@pytest.mark.parametrize("shifts, passed", [
    ({4: Fraction(1, 3), 2: Fraction(-2)}, False),
    ({4: Fraction(1, 3), 2: Fraction(-1, 3), 8: Fraction(1, 2)}, True),
])
def test_verify_dobinski_reports_the_worst_residual_of_the_grid(capsys, monkeypatch,
                                                                shifts, passed):
    # values of the (2, 2, 1) series moved by shift * tol at some grid cells:
    # the check's detail is the largest |value - exact| over the nine cells,
    # and it passes only if that is within tol
    tol, real, values = Fraction(1, 10 ** 12), bell.dobinski_eval, {}

    def shifted(n, r, s, x, lam, tol):
        res = real(n, r, s, x, lam, tol)
        if (n, r, s) == (2, 2, 1):
            cell = cli._GRID.index((x, lam))
            res = res._replace(value=res.value + shifts.get(cell, 0) * tol)
            values[cell] = res.value
        return res

    monkeypatch.setattr(bell, "dobinski_eval", shifted)
    code, out, err = run(capsys, ["verify", "--order", "6", "--suite", "dobinski"])
    assert (code, err) == (0 if passed else 1, "")
    # the exact values from the tower, which shares no code with the grid
    row = bell.bell_rs_poly(2, 2, 1)
    worst = max(abs(values[cell] - row(x)(lam)) for cell, (x, lam) in enumerate(cli._GRID))
    assert (worst <= tol) is passed
    check, = (c for c in json.loads(out)["checks"]
              if c["identity"] == "dobinski-series[n=2,r=2,s=1]")
    assert check == {"identity": "dobinski-series[n=2,r=2,s=1]", "pass": passed,
                     "detail": f"worst residual {rational_str(worst)}"}


def test_verify_dobinski_reads_one_balanced_sum_in_both_checks(capsys, monkeypatch):
    # the balanced series is summed once by dobinski_rr: a wrong value at
    # (k, r) = (2, 3) must fail both checks that read it, and nothing else
    real = bell.dobinski_rr

    def bumped(k, r, x, lam, tol):
        res = real(k, r, x, lam, tol)
        if (k, r) == (2, 3):
            return bell.DobinskiResult(res.value + 1, res.terms_used, res.tail_bound)
        return res

    monkeypatch.setattr(bell, "dobinski_rr", bumped)
    assert _failed_dobinski_checks(capsys) == [
        "dobinski-balanced[k=2,r=3]",
        "dobinski-series[n=2,r=3,s=3]",
    ]


def test_verify_dobinski_sums_each_series_once(capsys, monkeypatch):
    # 6 (r, s) pairs x 4 orders x 9 grid points; the 108 balanced sums that
    # dobinski-balanced reads are among them
    calls = []
    real_eval, real_rr = bell.dobinski_eval, bell.dobinski_rr

    def counted_eval(n, r, s, x, lam, tol):
        calls.append((n, r, s, x, lam))
        return real_eval(n, r, s, x, lam, tol)

    def counted_rr(k, r, x, lam, tol):
        calls.append((k, r, r, x, lam))
        with monkeypatch.context() as inner:  # dobinski_rr calls dobinski_eval
            inner.setattr(bell, "dobinski_eval", real_eval)
            return real_rr(k, r, x, lam, tol)

    monkeypatch.setattr(bell, "dobinski_eval", counted_eval)
    monkeypatch.setattr(bell, "dobinski_rr", counted_rr)
    code, out, err = run(capsys, ["verify", "--order", "6", "--suite", "dobinski"])
    assert (code, err) == (0, "")
    assert len(json.loads(out)["checks"]) == 60
    assert len(calls) == 216
    assert len(set(calls)) == 216


def test_verify_dobinski_builds_each_bell_row_once(capsys, monkeypatch):
    # 24 shapes: the 6 (r, s) pairs x 4 orders of the series checks; the
    # double-sum and Gamma-ratio checks read rows among them
    calls = []
    real = bell.bell_rs_poly

    def counted(n, r, s):
        calls.append((n, r, s))
        return real(n, r, s)

    monkeypatch.setattr(bell, "bell_rs_poly", counted)
    code, out, err = run(capsys, ["verify", "--order", "6", "--suite", "dobinski"])
    assert (code, err) == (0, "")
    assert len(json.loads(out)["checks"]) == 60
    assert len(calls) == len(set(calls)) == 24


def test_verify_oracles_builds_each_closed_row_once(monkeypatch):
    # one Newton row per (n, r, s) of the 6 (r, s) pairs x 4 orders; the
    # balanced and lah checks read rows among them, and no check goes
    # through the one-entry closed form
    calls, entries = [], []
    real = stirling.newton_row

    def counted(name, n, *params, upto=None):
        calls.append((name, n, params, upto))
        return real(name, n, *params, upto=upto)

    monkeypatch.setattr(stirling, "newton_row", counted)
    monkeypatch.setattr(stirling, "stirling_rs_degenerate", lambda *args: entries.append(args))
    checks = cli._suite_oracles(4, 3, 3)
    assert len(checks) == 91 and all(c["pass"] for c in checks)
    assert len(calls) == len(set(calls)) == 24
    assert entries == []


def test_verify_egf_sums_the_r0_bell_series_once(monkeypatch):
    # bell-egf is r-bell-egf at r = 0: one series, reported under both names
    calls = []
    real = serieslab.r_bell_egf_check

    def counted(r, order=10):
        calls.append(r)
        return real(r, order)

    monkeypatch.setattr(serieslab, "r_bell_egf_check", counted)
    checks = cli._suite_egf(6, 3)
    assert calls == [0, 1, 2, 3]
    assert [c["identity"] for c in checks[7:12]] == [
        "bell-egf", *(f"r-bell-egf[r={r}]" for r in range(4))]
    assert checks[7] == cli._egf_record(serieslab.bell_egf_check(6))


def test_verify_egf_builds_each_power_once(monkeypatch):
    # the seven stirling2-egf checks read one chain of powers of e_l(t) - 1:
    # 6 products, and 1 for each of the four r-bell-egf series
    calls = []
    real = serieslab._product

    def counted(a, b):
        calls.append(b)
        return real(a, b)

    monkeypatch.setattr(serieslab, "_product", counted)
    checks = cli._suite_egf(6, 3)
    assert len(calls) == 10
    monkeypatch.undo()
    assert checks[:7] == [cli._egf_record(serieslab.stirling_egf_check(k, 6)) for k in range(7)]


@pytest.mark.parametrize(
    "name, bumped_at, first, side, failing",
    [
        ("stirling2_degenerate", lambda n, k: (n, k) == (4, 2), (4, 2),
         lambda row: XPoly.constant(row / 24), ["stirling2-egf[k=2]"]),
        ("r_bell_poly", lambda n, r: (n, r) == (3, 1), (3, 1),
         lambda row: row, ["r-bell-egf[r=1]"]),
        ("r_bell_poly", lambda n, r: r == 0, (0, 0),
         lambda row: row, ["bell-egf", "r-bell-egf[r=0]"]),
        ("bell_rs_poly", lambda n, r, s: (r, s) == (2, 2), (0, 2, 2),
         lambda row: row, ["rr-egf[r=2]"]),
    ],
    ids=["stirling2-4-2", "r-bell-3-1", "r-bell-r0", "bell-rs-2-2"],
)
def test_verify_egf_fails_where_one_row_is_wrong(capsys, monkeypatch, name, bumped_at, first,
                                                  side, failing):
    # +1 on the row side of the series lab: exactly the checks that read the
    # row fail, each naming the first n with both sides as printed
    real = getattr(serieslab, name)

    def bumped(*args):
        row = real(*args)
        return row + 1 if bumped_at(*args) else row

    monkeypatch.setattr(serieslab, name, bumped)
    code, out, err = run(capsys, ["verify", "--suite", "egf", "--order", "6"])
    assert (code, err) == (1, "")
    failed = [c for c in json.loads(out)["checks"] if not c["pass"]]
    assert sorted(c["identity"] for c in failed) == failing
    for check in failed:
        assert check["first_mismatch"] == {
            "n": first[0],
            "expected": str(side(real(*first) + 1)),
            "actual": str(side(real(*first))),
        }


def test_verify_sees_a_wrong_factor_list_through_the_weyl_engine(capsys, monkeypatch):
    # the kernel, the Newton row and Family.polynomial all read the registry's
    # factor list, so factored-identity passes on a wrong list; the Weyl
    # engine shares nothing with it, and triple-oracle fails
    family = stirling.FAMILIES["stirling-rs"]

    def factors(n, r, s):
        (c, depth, d), *rest = family.factors(n, r, s)
        return [(c, depth, d + 1), *rest]

    monkeypatch.setitem(stirling.FAMILIES, "stirling-rs", family._replace(factors=factors))
    stirling.family_row.cache_clear()
    try:
        code, out, err = run(capsys, ["verify", "--suite", "oracles"])
    finally:
        stirling.family_row.cache_clear()
    assert (code, err) == (1, "")
    passed = {c["identity"]: c["pass"] for c in json.loads(out)["checks"]}
    triple = [v for k, v in passed.items() if k.startswith("triple-oracle")]
    factored = [v for k, v in passed.items() if k.startswith("factored-identity")]
    assert len(triple) == len(factored) == 24
    assert not any(triple)
    assert all(factored)


def test_verify_dobinski_sees_a_wrong_factor_list(capsys, monkeypatch):
    # the Dobinski series keeps its own copy of the stirling-rs factor list,
    # so a wrong registry list makes the Bell row it is compared with wrong:
    # every dobinski-series check fails, and so does every
    # double-sum-identity, whose right side is the stirling-rr row.  The
    # balanced checks compare the series with the Weyl row and the
    # Gamma-ratio checks read the row at l = 0, where the wrong d l term
    # vanishes, so those pass
    family = stirling.FAMILIES["stirling-rs"]

    def factors(n, r, s):
        (c, depth, d), *rest = family.factors(n, r, s)
        return [(c, depth, d + 1), *rest]

    monkeypatch.setitem(stirling.FAMILIES, "stirling-rs", family._replace(factors=factors))
    stirling.family_row.cache_clear()
    try:
        code, out, err = run(capsys, ["verify", "--suite", "dobinski", "--order", "6"])
    finally:
        stirling.family_row.cache_clear()
    assert (code, err) == (1, "")
    passed = {c["identity"]: c["pass"] for c in json.loads(out)["checks"]}
    series = [v for k, v in passed.items() if k.startswith("dobinski-series")]
    double = [v for k, v in passed.items() if k.startswith("double-sum-identity")]
    others = [v for k, v in passed.items()
              if not k.startswith(("dobinski-series", "double-sum-identity"))]
    assert len(series) == 24 and len(double) == 12 and len(others) == 24
    assert not any(series) and not any(double)
    assert all(others)


def test_verify_dobinski_sees_a_wrong_stirling_rr_factor_list(capsys, monkeypatch):
    # double-sum-identity compares the Bell polynomial, read off the
    # stirling-rs list, with the Newton row of the stirling-rr list: a wrong
    # stirling-rr list fails every one of them, and nothing else
    family = stirling.FAMILIES["stirling-rr"]

    def factors(n, r):
        (c, depth, d), *rest = family.factors(n, r)
        return [(c, depth, d + 1), *rest]

    monkeypatch.setitem(stirling.FAMILIES, "stirling-rr", family._replace(factors=factors))
    stirling.family_row.cache_clear()
    try:
        code, out, err = run(capsys, ["verify", "--suite", "dobinski", "--order", "6"])
    finally:
        stirling.family_row.cache_clear()
    assert (code, err) == (1, "")
    failed = [c["identity"] for c in json.loads(out)["checks"] if not c["pass"]]
    assert failed == [f"double-sum-identity[n={n},r={r}]"
                      for r in range(1, 4) for n in range(1, 5)]


def test_verify_with_no_checks_is_a_usage_error(capsys):
    code, out, err = run(
        capsys, ["verify", "--suite", "oracles", "--max-n", "0", "--max-r", "0"]
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "bounds",
    [
        ["--suite", "oracles", "--max-n", "1", "--max-r", "1", "--max-s", "-1"],
        ["--suite", "dobinski", "--max-n", "1", "--max-r", "1", "--max-s", "0"],
        ["--suite", "oracles", "--max-n", "-1", "--max-r", "1"],
        ["--suite", "egf", "--order", "2", "--max-r", "1", "--max-n", "-1"],
        ["--suite", "all", "--order", "2", "--max-n", "1", "--max-r", "-1"],
    ],
)
def test_verify_bound_below_its_least_value_is_a_usage_error(capsys, bounds):
    # each of these used to drop checks silently and still print a pass
    code, out, err = run(capsys, ["verify", *bounds])
    assert code == 2
    assert out == ""
    assert err.startswith("error: --max-") and err.count("\n") == 1


@pytest.mark.parametrize("tol", ["-1", "0", "-1/2"])
@pytest.mark.parametrize("suite", ["oracles", "egf", "recurrence", "dobinski", "all"])
def test_verify_tol_not_positive_is_a_usage_error(capsys, suite, tol):
    # only the dobinski suite reads --tol; the others used to exit 0 on it
    code, out, err = run(capsys, ["verify", "--suite", suite, "--order", "2", "--tol", tol])
    assert (code, out) == (2, "")
    assert err == f"error: tol must be positive, got {Fraction(tol)}\n"


def test_verify_fails_loudly(capsys, monkeypatch):
    monkeypatch.setattr(
        cli, "_suite_recurrence", lambda *a: [cli._check("forced", False)]
    )
    code, out, _ = run(capsys, ["verify", "--suite", "recurrence"])
    assert code == 1
    doc = json.loads(out)
    assert doc["pass"] is False


def test_verify_recurrence_fails_where_a_wrong_row_is_used(capsys, monkeypatch):
    # x^2 added to the row (n, r) = (3, 1) must fail the check whose target
    # it is and every check whose convolution forms read it
    real = bell.r_bell_poly

    def bumped(n, r):
        row = real(n, r)
        return row + X * X if (n, r) == (3, 1) else row

    monkeypatch.setattr(bell, "r_bell_poly", bumped)
    code, out, err = run(capsys, ["verify", "--suite", "recurrence"])
    assert (code, err) == (1, "")
    doc = json.loads(out)
    assert doc["pass"] is False
    assert len(doc["checks"]) == 20
    failed = [c["identity"] for c in doc["checks"] if not c["pass"]]
    assert sorted(failed) == [
        f"shifted-bell-recurrence[n={n},r={r}]"
        for n, r in ((2, 1), (3, 0), (3, 1), (4, 0), (4, 1))
    ]


def test_verify_negative_order_is_a_usage_error(capsys):
    code, out, err = run(capsys, ["verify", "--suite", "egf", "--order", "-1"])
    assert (code, out) == (2, "")
    assert err == "error: order must be a nonnegative integer\n"


@pytest.mark.parametrize("suite", ["oracles", "egf", "recurrence", "dobinski", "all"])
def test_verify_negative_order_is_a_usage_error_for_every_suite(capsys, monkeypatch, suite):
    # only the egf suite reads --order: the others used to exit 0 on it, and
    # `all` ran the oracles suite before it failed; now no suite runs
    for name in cli._SUITES:
        monkeypatch.setitem(cli._SUITES, name, lambda args: pytest.fail("a suite ran"))
    code, out, err = run(capsys, ["verify", "--suite", suite, "--order", "-1"])
    assert (code, out) == (2, "")
    assert err == "error: order must be a nonnegative integer\n"


def test_verify_reports_a_closed_form_that_fails_to_vanish(capsys, monkeypatch):
    # the same broken falling factorial as the closed-form test: the
    # vanishing check must record a failure, not end verify in a traceback
    real = stirling.falling_scalar
    monkeypatch.setattr(stirling, "falling_scalar", lambda a, k: real(a, k) + (a == 0))
    code, out, _ = run(
        capsys, ["verify", "--suite", "oracles", "--max-n", "1", "--max-r", "1"]
    )
    assert code == 1
    assert cli.canonical_json(json.loads(out)) == out.strip()
    doc = json.loads(out)
    assert doc["pass"] is False
    checks = {c["identity"]: c for c in doc["checks"]}
    vanish = checks["vanish-beyond-ns[n=1,r=1,s=1]"]
    assert vanish["pass"] is False
    assert vanish["detail"] == "alternating sum failed to vanish beyond n*s"


def test_verify_compares_the_factor_kernel_row(capsys, monkeypatch):
    # a kernel row that is wrong off the balanced case must fail the
    # triple-oracle checks, which compare it with the closed form and the
    # Weyl row
    real = stirling.family_row

    def bumped(name, n, *params):
        row = real(name, n, *params)
        if name == "stirling-rs" and params[0] > params[1]:
            cells = list(row.coefficients)
            cells[1] = cells[1] + 1
            row = stirling.BasisCoeffs(tuple(cells), row.basis)
        return row

    monkeypatch.setattr(stirling, "family_row", bumped)
    code, out, err = run(capsys, ["verify", "--order", "6", "--suite", "oracles"])
    assert (code, err) == (1, "")
    assert cli.canonical_json(json.loads(out)) + "\n" == out
    doc = json.loads(out)
    assert doc["pass"] is False
    failed = {c["identity"]: c.get("detail") for c in doc["checks"] if not c["pass"]}
    assert failed == {
        f"triple-oracle[n={n},r={r},s={s}]": "first mismatch at k=1"
        for r, s in ((2, 1), (3, 1), (3, 2))
        for n in range(1, 5)
    }


def test_verify_sees_a_wrong_r_stirling_row_through_every_reader(capsys, monkeypatch):
    # bell reads the row through the stirling module, so a row patched there
    # reaches the shifted Bell checks too; with a binding of its own, bell
    # kept the true row and this wrong one passed the release gate
    real = stirling.family_row

    def bumped(name, n, *params):
        row = real(name, n, *params)
        if name == "r-stirling" and n == 3:
            cells = list(row.coefficients)
            cells[1] = cells[1] + 1
            row = stirling.BasisCoeffs(tuple(cells), row.basis)
        return row

    monkeypatch.setattr(stirling, "family_row", bumped)
    code, out, err = run(capsys, ["verify", "--order", "6"])
    assert (code, err) == (1, "")
    assert json.loads(out)["pass"] is False


@pytest.mark.parametrize("flag, value, least", [
    ("--max-n", "-1", 0), ("--max-r", "-3", 0), ("--max-s", "0", 1)])
def test_verify_bound_error_names_the_flag_and_value(capsys, flag, value, least):
    assert run(capsys, ["verify", flag, value]) == (
        2, "", f"error: {flag} must be >= {least}, got {value}\n")


# The route-coverage probe: each case makes one family's row wrong in one
# way, and verify --order 6 must exit 1.  "entry-k" adds 1 to entry k of the
# family's n = 3 kernel row at stirling.family_row; "first-d" and "last-d"
# add 1 to d of the first or last factor (c, depth, d) of its registry factor
# list, and "last-c" adds 1 to c of the last.  A known gap is a case that no
# verify check sees: no check reads a lah-signed row.  A new gap fails this
# test, and so does a closed one until its entry leaves KNOWN_GAPS.
ROUTE_FAMILIES = ("stirling2", "stirling-rs", "stirling-rr", "r-stirling", "lah", "lah-signed")
ROUTE_MUTATIONS = ("entry-0", "entry-1", "entry-2", "first-d", "last-d", "last-c")
KNOWN_GAPS = {("lah-signed", mutation) for mutation in ROUTE_MUTATIONS}


def _wrong_factors(family, mutation):
    def factors(n, *params):
        listed = list(family.factors(n, *params))
        if listed:  # n = 0 has no factor
            at = 0 if mutation == "first-d" else -1
            c, depth, d = listed[at]
            listed[at] = (c + 1, depth, d) if mutation == "last-c" else (c, depth, d + 1)
        return listed
    return factors


@pytest.mark.parametrize("mutation", ROUTE_MUTATIONS)
@pytest.mark.parametrize("name", ROUTE_FAMILIES)
def test_verify_sees_a_wrong_row_of_every_family(capsys, monkeypatch, name, mutation):
    real = stirling.family_row
    if mutation.startswith("entry-"):
        k = int(mutation[-1])

        def bumped(family, n, *params):
            row = real(family, n, *params)
            if (family, n) == (name, 3):
                cells = list(row.coefficients)
                cells[k] = cells[k] + 1
                row = stirling.BasisCoeffs(tuple(cells), row.basis)
            return row

        monkeypatch.setattr(stirling, "family_row", bumped)
    else:
        family = stirling.FAMILIES[name]
        monkeypatch.setitem(stirling.FAMILIES, name,
                            family._replace(factors=_wrong_factors(family, mutation)))
    real.cache_clear()
    try:
        code, out, err = run(capsys, ["verify", "--order", "6"])
    finally:
        real.cache_clear()
    assert (code, err) == (0 if (name, mutation) in KNOWN_GAPS else 1, "")
    assert json.loads(out)["pass"] is (code == 0)


# The probe past the kernel: verify --order 6 must also exit 1 where a row
# that family_row does not build is wrong.  "newton-row" adds 1 to entry 1 of
# every n = 3 stirling.newton_row row, "diagonal-row" adds 1 to the constant
# term of entry 1 of every n = 3 weyl.diagonal_row row, and "bell-perm" makes
# bell's own copy of the stirling-rs factor list wrong: math.perm reads every
# shift one place higher.  A case that no verify check sees would go in
# EXTRA_ROUTE_GAPS, and a new gap fails this test.
EXTRA_ROUTE_GAPS = set()


def _bumped_at_n3(real, n_at, bump):
    def bumped(*args, **kwargs):
        row = real(*args, **kwargs)
        if args[n_at] == 3:
            row = list(row)
            row[1] = bump(row[1])
        return row
    return bumped


@pytest.mark.parametrize("mutation", ["newton-row", "diagonal-row", "bell-perm"])
def test_verify_sees_a_wrong_row_past_the_kernel(capsys, monkeypatch, mutation):
    if mutation == "newton-row":
        monkeypatch.setattr(stirling, "newton_row",
                            _bumped_at_n3(stirling.newton_row, 1, lambda c: c + 1))
    elif mutation == "diagonal-row":
        monkeypatch.setattr(weyl, "diagonal_row", _bumped_at_n3(
            weyl.diagonal_row, 0, lambda c: [c[0] + 1, *c[1:]] if c else [1]))
    else:
        real_perm = bell.perm
        monkeypatch.setattr(bell, "perm", lambda m, k: real_perm(m + 1, k))
    stirling.family_row.cache_clear()
    try:
        code, out, err = run(capsys, ["verify", "--order", "6"])
    finally:
        stirling.family_row.cache_clear()
    assert (code, err) == (0 if mutation in EXTRA_ROUTE_GAPS else 1, "")
    assert json.loads(out)["pass"] is (code == 0)


def test_a_passing_verify_builds_few_polynomials(capsys, monkeypatch):
    # every suite of verify --order 6, each from a cold family_row: the
    # oracles, egf and recurrence checks compare int rows and build no Poly
    # (LambdaPoly or XPoly) of their own; 1,237 are left, 2,790 before.  They
    # are family_row's BasisCoeffs entries (717), newton_row's public
    # LambdaPolys (316), and the Poly-returning readers that verify keeps
    # calling so that a wrong row patched there fails it: bell.r_bell_poly
    # and bell_rs_poly (through serieslab too), and the dobinski suite's
    # degenerate_product, read by weyl.extract_stirling (about 190 in all);
    # the rest is the dobinski suite's XPoly of a newton_row (12).
    calls = []
    real = algebra.Poly.__init__

    def counted(self, coeffs=()):
        calls.append(type(self))
        real(self, coeffs)

    monkeypatch.setattr(algebra.Poly, "__init__", counted)
    for suite in cli._SUITES:
        stirling.family_row.cache_clear()
        try:
            code, out, err = run(capsys, ["verify", "--order", "6", "--suite", suite])
        finally:
            stirling.family_row.cache_clear()
        assert (code, err) == (0, "")
    assert len(calls) <= 1400


def _main(argv) -> tuple:
    # capsys is function-scoped, which Hypothesis does not reset per example
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _rat_arg(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


_SMALL_RATS = st.fractions(min_value=-9, max_value=9, max_denominator=9)
_POSITIVE_RATS = st.fractions(min_value=Fraction(1, 9), max_value=9, max_denominator=9)
_NONPOSITIVE_RATS = st.fractions(min_value=-9, max_value=0, max_denominator=9)

# family -> (least n, least r, its parameter flags); r >= s >= 1 where both are taken
_TABLE_DOMAIN = {
    "stirling2": (0, None, ()),
    "stirling-rs": (1, 1, ("r", "s")),
    "stirling-rr": (1, 1, ("r",)),
    "r-stirling": (0, 0, ("r",)),
    "lah": (0, None, ()),
    "lah-signed": (0, None, ()),
    "bell-rs": (0, 1, ("r", "s")),
    "r-bell": (0, 0, ("r",)),
}


@st.composite
def _valid_requests(draw):
    command = draw(st.sampled_from(["table", "normal-order", "dobinski"]))
    if command == "table":
        family = draw(st.sampled_from(sorted(_TABLE_DOMAIN)))
        least_n, least_r, flags = _TABLE_DOMAIN[family]
        argv = ["table", family, "--n", str(draw(st.integers(least_n, 8)))]
        if flags:
            r = draw(st.integers(least_r, 4))
            argv += ["--r", str(r)]
            if "s" in flags:
                argv += ["--s", str(draw(st.integers(1, r)))]
        if draw(st.booleans()):
            argv.append(f"--eval-lambda={_rat_arg(draw(_SMALL_RATS))}")
        return argv
    r = draw(st.integers(1, 3))
    argv = [command, "--n", str(draw(st.integers(1, 3))), "--r", str(r),
            "--s", str(draw(st.integers(1, r)))]
    if command == "dobinski":
        argv += [f"--x={_rat_arg(draw(_POSITIVE_RATS))}",
                 f"--lambda={_rat_arg(draw(_SMALL_RATS))}",
                 f"--tol=1/{10 ** draw(st.integers(1, 30))}"]
    return argv


@settings(max_examples=60, deadline=None)
@given(_valid_requests())
def test_valid_requests_print_canonical_json(argv):
    code, out, err = _main(argv)
    assert (code, err) == (0, ""), argv
    assert cli.canonical_json(json.loads(out)) + "\n" == out


@st.composite
def _weyl_shapes(draw):
    r = draw(st.integers(1, 5))
    return draw(st.integers(1, 8)), r, draw(st.integers(1, r))


@settings(max_examples=60, deadline=None)
@given(_weyl_shapes())
def test_normal_order_prints_the_normal_form(shape):
    # normal-order prints the packed row directly; the NormalForm that
    # degenerate_product builds from the same row, its terms in reverse key
    # order, is the oracle for every byte
    n, r, s = shape
    terms = weyl.degenerate_product(n, r, s).terms
    expected = cli.canonical_json([
        {"i": i, "j": j, "coeff": cli._poly_cells(c)}
        for (i, j), c in sorted(terms.items(), reverse=True)
    ])
    argv = ["normal-order", "--n", str(n), "--r", str(r), "--s", str(s)]
    assert _main(argv) == (0, expected + "\n", "")


@st.composite
def _out_of_domain_requests(draw):
    # every argument parses, and exactly one of them is outside its domain
    command = draw(st.sampled_from(["table", "normal-order", "dobinski"]))
    if command == "table":
        family = draw(st.sampled_from(sorted(_TABLE_DOMAIN)))
        least_n, least_r, flags = _TABLE_DOMAIN[family]
        values = {"n": least_n, "r": 3, "s": 2}
        name = draw(st.sampled_from(["n", *flags]))
        if name == "n":
            values["n"] = draw(st.integers(-5, least_n - 1))
        elif name == "r":  # below its least value, or below s = 2
            values["r"] = draw(st.integers(-5, least_r - 1 if "s" not in flags else 1))
        else:
            values["s"] = draw(st.one_of(st.integers(-5, 0), st.integers(4, 9)))
        argv = ["table", family, f"--n={values['n']}"]
        return argv + [f"--{flag}={values[flag]}" for flag in flags]
    values = {"n": 2, "r": 3, "s": 2}
    name = draw(st.sampled_from(["n", "r", "s", "x", "tol"] if command == "dobinski" else
                                ["n", "r", "s"]))
    if name == "n":
        values["n"] = draw(st.integers(-5, 0))
    elif name == "r":  # below s = 2
        values["r"] = draw(st.integers(-5, 1))
    elif name == "s":
        values["s"] = draw(st.one_of(st.integers(-5, 0), st.integers(4, 9)))
    argv = [command] + [f"--{flag}={values[flag]}" for flag in ("n", "r", "s")]
    if command == "dobinski":
        x, tol = Fraction(1, 2), Fraction(1, 10 ** 12)
        if name == "x":
            x = draw(_NONPOSITIVE_RATS)
        elif name == "tol":
            tol = draw(_NONPOSITIVE_RATS)
        argv += [f"--x={_rat_arg(x)}", "--lambda=1/2", f"--tol={_rat_arg(tol)}"]
    return argv


@settings(max_examples=60, deadline=None)
@given(_out_of_domain_requests())
def test_out_of_domain_requests_are_usage_errors(argv):
    code, out, err = _main(argv)
    assert (code, out) == (2, ""), argv
    assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)


def _subparsers(parser) -> dict:
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


@pytest.mark.parametrize("columns", ["80", "50"])
def test_each_command_parser_is_its_subparser(monkeypatch, columns):
    monkeypatch.setenv("COLUMNS", columns)
    subparsers = _subparsers(cli.build_parser())
    assert list(subparsers) == list(cli._COMMANDS)
    for name, subparser in subparsers.items():
        assert cli._command_parser(name).format_help() == subparser.format_help()


@pytest.mark.parametrize("columns", ["50", "120"])
@pytest.mark.parametrize("name", list(cli._COMMANDS))
def test_each_command_parser_formats_help_as_stock_argparse(monkeypatch, columns, name):
    # the width the parser reads once must be the one argparse's own
    # formatter reads at each call
    monkeypatch.setenv("COLUMNS", columns)
    stock = argparse.ArgumentParser(prog=f"degenstirling {name}")
    cli._COMMANDS[name][1](stock)
    parser = cli._command_parser(name)
    assert parser.format_help() == stock.format_help()
    assert parser.format_usage() == stock.format_usage()


def _count_terminal_queries(monkeypatch) -> list:
    # argparse's HelpFormatter imports shutil when it is built, so patching
    # the module attribute counts its queries as well as the parser's
    calls = []
    real = shutil.get_terminal_size

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(shutil, "get_terminal_size", counted)
    return calls


@pytest.mark.parametrize("name", list(cli._COMMANDS))
def test_a_command_parser_asks_the_terminal_once(monkeypatch, name):
    calls = _count_terminal_queries(monkeypatch)
    cli._command_parser(name)
    assert len(calls) == 1


def test_the_full_parser_asks_the_terminal_once_per_parser(monkeypatch):
    calls = _count_terminal_queries(monkeypatch)
    parser = cli.build_parser()
    assert 1 <= len(calls) <= 1 + len(_subparsers(parser))


def _outcome(call, argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = call(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _main_with_the_full_parser(argv) -> int:
    # main as it reads with all four commands' parsers built on each call
    args = cli.build_parser().parse_args(cli._join_negative_rationals(argv))
    try:
        return args.func(args)
    except (cli.UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


_VALUE_FLAGS = {
    "table": ["--n", "--r", "--s", "--format", "--eval-lambda"],
    "normal-order": ["--n", "--r", "--s"],
    "verify": ["--suite", "--max-n", "--max-r", "--max-s", "--order", "--tol"],
    "dobinski": ["--n", "--r", "--s", "--x", "--lambda", "--tol"],
}


@st.composite
def _malformed_requests(draw):
    # a request of any command with one fault that argparse reports; verify's
    # requests appear only here, where none of them runs its suites
    argv = draw(st.one_of(_valid_requests(), _out_of_domain_requests(), st.sampled_from(
        [["verify"], ["verify", "--suite=egf", "--order=2"], ["verify", "--max-n=1"]])))
    fault = draw(st.sampled_from(
        ["unknown flag", "missing value", "help", "unknown command", "empty"]))
    if fault == "unknown flag":
        at = draw(st.integers(1, len(argv)))
        flag = draw(st.sampled_from(["--bogus", "--bogus=1", "-z", "--nn", "--"]))
        return argv[:at] + [flag] + argv[at:]
    if fault == "missing value":
        joined = [i for i, token in enumerate(argv) if token.startswith("--") and "=" in token]
        if joined and draw(st.booleans()):
            at = draw(st.sampled_from(joined))
            return argv[:at] + [argv[at].split("=")[0]] + argv[at + 1:]
        return argv + [draw(st.sampled_from(_VALUE_FLAGS[argv[0]]))]
    if fault == "help":
        at = draw(st.integers(0, len(argv)))
        return argv[:at] + [draw(st.sampled_from(["-h", "--help", "--he"]))] + argv[at:]
    if fault == "unknown command":
        return [draw(st.sampled_from(["tabel", "Table", "normal_order", "dob", "help"]))] + argv[1:]
    return []


@settings(max_examples=150, deadline=None)
@given(st.one_of(_valid_requests(), _out_of_domain_requests(), _malformed_requests()))
def test_main_matches_the_full_parser(argv):
    assert _outcome(cli.main, argv) == _outcome(_main_with_the_full_parser, argv), argv


def _readme_examples() -> list:
    """(argv, expected stdout) for every `$ degenstirling ...` line in the
    README's shell blocks; the output is the rest of the block."""
    examples = []
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S):
        lines = block.splitlines(keepends=True)
        if lines[0].startswith("$ degenstirling "):
            argv = shlex.split(lines[0][len("$ degenstirling "):])
            examples.append((argv, "".join(lines[1:])))
    return examples


def test_a_closed_pipe_ends_quietly():
    # the reader takes a few bytes of a row far larger than a pipe buffer
    # and closes the pipe, as `| head -c 10` does: exit 1, no traceback
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    argv = [sys.executable, "-m", "degenstirling.cli", "table", "stirling2", "--n", "120"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=env) as proc:
        head = proc.stdout.read(10)
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=120)
    assert (head, code, err) == (b'{"family":', 1, b"")


def test_readme_cli_examples_are_byte_exact(capsys):
    examples = _readme_examples()
    assert len(examples) == 4
    for argv, expected in examples:
        code, out, err = run(capsys, argv)
        assert (code, out, err) == (0, expected, ""), argv


def test_readme_python_example_runs():
    # the README's Python API block, asserts kept even under python -O
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], str(README), "exec", optimize=0), namespace)
    assert namespace["exact"] == Fraction(35, 2)
