"""End-to-end CLI behaviour: output bytes, exit codes, verification suites."""

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degenstirling import bell, cli, stirling, weyl
from degenstirling.algebra import X, rational_str

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


@pytest.mark.parametrize(
    "argv, digest",
    [
        ("table stirling2 --n 60",
         "808a70db6875f593904c33850ec204b1d70a59eecea8db3694349a0e163f0a51"),
        ("table stirling-rs --n 24 --r 3 --s 2",
         "1cd6eced10b7d74a54350e6ca1f373e5c5aaf4d9feae9de9c2ff77794310b320"),
        ("table stirling-rr --n 12 --r 3",
         "e08966336e662b64a0d0a8efde6d976e3f26cd98c40f22509410911395e4fc85"),
        ("table r-stirling --n 30 --r 3",
         "40a0dfd4d2da1cb711c30800608bb758d327d5a3f465cba5b121a7fe66c7d074"),
        ("table lah --n 30",
         "a25d6f8992a53d9467c888703b2c2ca63054f90f0d6a6a4144b6e8af68102bd8"),
        ("table lah-signed --n 30",
         "ece6b587897ad4d71a721b12ff5686dc29a12133520d3dccdd3558aa9e53cbc7"),
        ("table r-bell --n 20 --r 2 --format csv",
         "097bffecfb633a9b164e6519809b7e4a39aff123947dc825a7edbd00acd45270"),
        ("table bell-rs --n 16 --r 4 --s 3 --eval-lambda=-7/3",
         "f69fa4f68380d5fc570b4166b34c86cd2c9c18459cf78ed3ff9dae8ffe38ec14"),
    ],
)
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
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "fd2a83357840f180d42e479a9a81da2daab5982fd983ac90715b6273ceda7f77"
    )


def test_larger_verify_grid_is_pinned(capsys):
    # rows up to n = 6, r = 4 through every suite, the dobinski reference
    # values among them
    code, out, err = run(capsys, ["verify", "--max-n", "6", "--max-r", "4", "--max-s", "4"])
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "ade7a4e30fe0dcf9c0ea1134640cd8d106b7b3ed7466fc21090e639d8663c0b1"
    )


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
