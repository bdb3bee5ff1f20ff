"""Command-line front end: tables, normal ordering, verification suites and
Dobinski evaluation.

Exit codes: 0 success, 1 a verification suite found a failing identity,
2 usage error (bad flags or parameters outside a family's domain).
JSON output is canonical: fixed key order, compact separators, every
rational serialised as "p/q"; re-serialising parsed output reproduces the
bytes exactly.

`main` builds only the parser of the command it is given, not all four;
none is kept between calls, because a parser held in module state lives
as long as its module, in each copy of the package a process imports.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import re
import sys
from fractions import Fraction

from . import bell, serieslab, stirling, weyl
from .algebra import LambdaPoly, XPoly, _cleared, _evaluate, rational_str

__all__ = ["main", "entry", "canonical_json"]


class UsageError(Exception):
    pass


def canonical_json(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _rat(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        pass
    # Fraction parses the numerator, denominator and exponent each as an int,
    # which Python refuses past its digit limit: name that limit, and leave
    # the long token out of the one error line
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and any(len(re.sub(r"\D", "", part)) > limit for part in re.split(r"[/eE]", text)):
        raise argparse.ArgumentTypeError(
            f"a number in this rational has more than {limit} digits, past "
            "Python's int-parse limit (PYTHONINTMAXSTRDIGITS raises it)")
    raise argparse.ArgumentTypeError(f"not a rational: {text!r}")


# argparse reads a token such as "-1/2" after an option as another option;
# main joins it to one of these options, or to an abbreviation such as
# "--lam" (no other option begins like them), as "--lam=-1/2", which argparse
# reads as the option's value
_RATIONAL_OPTIONS = {
    name[:end] for name in ("--x", "--lambda", "--tol", "--eval-lambda")
    for end in range(3, len(name) + 1)
}


def _join_negative_rationals(argv: list) -> list:
    out = []
    for token in argv:
        if out and out[-1] in _RATIONAL_OPTIONS and re.match(r"-[\d.]", token):
            out[-1] = f"{out[-1]}={token}"
        else:
            out.append(token)
    return out


def _poly_cells(lp: LambdaPoly) -> list:
    return [rational_str(c) for c in lp.coeffs]


# ---------------------------------------------------------------------------
# table

# besides the registry's six families: the Bell polynomials, which are the
# stirling-rs and r-stirling rows read as polynomials in x (bell-rs also
# takes n = 0, the empty product)
_BELL = {"bell-rs": ("stirling-rs", bell.bell_rs_poly), "r-bell": ("r-stirling", bell.r_bell_poly)}


def cmd_table(args) -> int:
    base, bell_poly = _BELL.get(args.family, (args.family, None))
    needs = stirling.FAMILIES[base].params
    for name in ("r", "s"):
        given = getattr(args, name) is not None
        if given and name not in needs:
            raise UsageError(f"family {args.family!r} takes no --{name}")
        if not given and name in needs:
            raise UsageError(f"family {args.family!r} requires --{name}")
    params = [getattr(args, name) for name in needs]
    if bell_poly is None:
        cells = stirling.family_row(base, args.n, *params).coefficients
    else:
        cells = bell_poly(args.n, *params).coeffs
    rows = list(enumerate(cells))
    if args.eval_lam is not None:
        rows = [(k, c(args.eval_lam)) for k, c in rows]

    if args.format == "csv":
        out = io.StringIO()
        writer = csv.writer(out, quoting=csv.QUOTE_NONNUMERIC, lineterminator="\n")
        for k, c in rows:
            writer.writerow([k, str(c) if isinstance(c, LambdaPoly) else rational_str(c)])
        sys.stdout.write(out.getvalue())
        return 0

    doc = {"family": args.family, "n": args.n}
    for name in needs:
        doc[name] = getattr(args, name)
    if args.eval_lam is not None:
        doc["lambda"] = rational_str(args.eval_lam)
        doc["rows"] = [{"k": k, "coeff": rational_str(c)} for k, c in rows]
    else:
        doc["rows"] = [{"k": k, "coeff": _poly_cells(c)} for k, c in rows]
    print(canonical_json(doc))
    return 0


# ---------------------------------------------------------------------------
# normal-order

def cmd_normal_order(args) -> int:
    nf = weyl.degenerate_product(args.n, args.r, args.s)
    records = [
        {"i": i, "j": j, "coeff": _poly_cells(c)}
        for (i, j), c in sorted(nf.terms.items(), reverse=True)
    ]
    print(canonical_json(records))
    return 0


# ---------------------------------------------------------------------------
# dobinski

def cmd_dobinski(args) -> int:
    res = bell.dobinski_eval(args.n, args.r, args.s, args.x, args.lam, args.tol)
    doc = {
        "n": args.n,
        "r": args.r,
        "s": args.s,
        "x": rational_str(args.x),
        "lambda": rational_str(args.lam),
        "tol": rational_str(args.tol),
        "value": rational_str(res.value),
        "terms_used": res.terms_used,
        "tail_bound": rational_str(res.tail_bound),
    }
    print(canonical_json(doc))
    return 0


# ---------------------------------------------------------------------------
# verify

def _check(identity: str, passed: bool, detail=None) -> dict:
    rec = {"identity": identity, "pass": bool(passed)}
    if detail is not None:
        rec["detail"] = detail
    return rec


def _egf_record(report: serieslab.CheckReport) -> dict:
    mism = None
    if report.first_mismatch is not None:
        mism = {
            "n": report.first_mismatch.n,
            "expected": str(report.first_mismatch.expected),
            "actual": str(report.first_mismatch.actual),
        }
    return {
        "identity": report.identity,
        "order": report.order,
        "pass": report.passed,
        "first_mismatch": mism,
    }


def _suite_oracles(max_n: int, max_r: int, max_s: int) -> list:
    checks = []
    closed_rows = {}

    def closed_row(n, r, s):
        # the closed-form row S(n, k), k = 0..n*s, computed once per (n, r, s)
        if (n, r, s) not in closed_rows:
            closed_rows[n, r, s] = [stirling.stirling_rs_degenerate(n, k, r, s)
                                    for k in range(n * s + 1)]
        return closed_rows[n, r, s]

    pairs = [(r, s) for r in range(1, max_r + 1) for s in range(1, min(r, max_s) + 1)]
    for r, s in pairs:
        for n in range(1, max_n + 1):
            closed = closed_row(n, r, s)
            engine = weyl.extract_stirling(weyl.degenerate_product(n, r, s), n, r, s)
            kernel = stirling.family_row("stirling-rs", n, r, s)
            bad = next(
                (k for k in range(n * s + 1)
                 if not closed[k] == engine[k] == kernel.coefficient(k)),
                None,
            )
            checks.append(
                _check(
                    f"triple-oracle[n={n},r={r},s={s}]",
                    bad is None,
                    None if bad is None else f"first mismatch at k={bad}",
                )
            )
            lhs = stirling.FAMILIES["stirling-rs"].polynomial(n, r, s)
            rhs = stirling.BasisCoeffs(tuple(closed), "falling").to_polynomial()
            checks.append(_check(f"factored-identity[n={n},r={r},s={s}]", lhs == rhs))
            try:
                vanish = all(
                    stirling.stirling_rs_degenerate(n, k, r, s).is_zero()
                    for k in range(n * s + 1, n * s + 6)
                )
                detail = None
            except ArithmeticError as exc:
                vanish, detail = False, str(exc)
            checks.append(_check(f"vanish-beyond-ns[n={n},r={r},s={s}]", vanish, detail))
    for r in range(1, max_r + 1):
        for n in range(1, max_n + 1):
            row = stirling.rr_basis_identity(n, r)
            ok = all(row.coefficient(k) == c for k, c in enumerate(closed_row(n, r, r))) and all(
                row.coefficient(k).is_zero() for k in range(r)
            )
            checks.append(_check(f"balanced-basis-row[n={n},r={r}]", ok))
        checks.append(
            _check(
                f"balanced-first-row[r={r}]",
                stirling.stirling_rr_degenerate(1, r, r)
                == closed_row(1, r, r)[r]
                == LambdaPoly.one(),
            )
        )
    for n in range(1, max_n + 1):
        closed = closed_row(n, 2, 1)
        ok = all(stirling.lah_degenerate(n, k) == closed[k] for k in range(n + 1))
        checks.append(_check(f"lah-is-(2,1)-row[n={n}]", ok))
    return checks


def _suite_egf(order: int, max_r: int) -> list:
    checks = [
        _egf_record(serieslab.stirling_egf_check(k, order)) for k in range(min(6, order) + 1)
    ]
    checks.append(_egf_record(serieslab.bell_egf_check(order)))
    checks.extend(_egf_record(serieslab.r_bell_egf_check(r, order)) for r in range(max_r + 1))
    checks.extend(_egf_record(serieslab.rr_egf_check(r, order)) for r in range(1, max_r + 1))
    return checks


def _suite_recurrence(max_n: int, max_r: int) -> list:
    checks = []
    for r in range(max_r + 1):
        for n in range(max_n + 1):
            form_a, form_b = bell.r_bell_recurrence(n, r)
            target = bell.r_bell_poly(n + 1, r)
            checks.append(
                _check(
                    f"shifted-bell-recurrence[n={n},r={r}]",
                    form_a == target and form_b == target,
                )
            )
    return checks


_LAM_GRID = (Fraction(0), Fraction(1, 2), Fraction(1))
_X_GRID = (Fraction(1, 2), Fraction(1), Fraction(2))


def _suite_dobinski(max_n: int, max_r: int, max_s: int, tol: Fraction) -> list:
    checks = []
    pairs = [(r, s) for r in range(1, max_r + 1) for s in range(1, min(r, max_s) + 1)]
    for r, s in pairs:
        for n in range(1, max_n + 1):
            # each exact value is the row, cleared once, evaluated in ints
            rows, den = _cleared(bell.bell_rs_poly(n, r, s).coeffs)
            worst = Fraction(0)
            ok = True
            for lam in _LAM_GRID:
                for xv in _X_GRID:
                    res = bell.dobinski_eval(n, r, s, xv, lam, tol)
                    exact = _evaluate(rows, den, xv, lam)
                    gap = abs(res.value - exact)
                    worst = max(worst, gap)
                    ok = ok and gap <= tol and res.tail_bound <= tol
            checks.append(
                _check(f"dobinski-series[n={n},r={r},s={s}]", ok,
                       f"worst residual {rational_str(worst)}")
            )
    for r in range(1, max_r + 1):
        for n in range(1, max_n + 1):
            # the series against the Weyl engine's row, a route it shares nothing with
            rows, den = _cleared(weyl.extract_stirling(weyl.degenerate_product(n, r, r), n, r, r))
            ok = True
            for lam in _LAM_GRID:
                for xv in _X_GRID:
                    res = bell.dobinski_rr(n, r, xv, lam, tol)
                    ok = ok and abs(res.value - _evaluate(rows, den, xv, lam)) <= tol
            checks.append(_check(f"dobinski-balanced[k={n},r={r}]", ok))
            ok = bell.bell_rs_poly(n, r, r) == XPoly(
                [stirling.stirling_rs_degenerate(n, k, r, r) for k in range(n * r + 1)]
            )
            checks.append(_check(f"double-sum-identity[n={n},r={r}]", ok))
    for r in range(2, max_r + 1):
        for s in range(1, r):
            for n in range(1, max_n + 1):
                exact = _evaluate(*_cleared(bell.bell_rs_poly(n, r, s).coeffs), 1, 0)
                res = bell.gamma_formula_classical(n, r, s, tol)
                checks.append(
                    _check(
                        f"gamma-ratio-series[n={n},r={r},s={s}]",
                        abs(res.value - exact) <= tol,
                    )
                )
    return checks


_SUITES = {
    "oracles": lambda args: _suite_oracles(args.max_n, args.max_r, args.max_s),
    "egf": lambda args: _suite_egf(args.order, args.max_r),
    "recurrence": lambda args: _suite_recurrence(args.max_n, args.max_r),
    "dobinski": lambda args: _suite_dobinski(args.max_n, args.max_r, args.max_s, args.tol),
}


def cmd_verify(args) -> int:
    # a bound below its least value would silently drop checks
    for flag, value, least in (("--max-n", args.max_n, 0), ("--max-r", args.max_r, 0),
                               ("--max-s", args.max_s, 1)):
        if value < least:
            raise UsageError(f"{flag} must be >= {least}, got {value}")
    wanted = _SUITES if args.suite == "all" else (args.suite,)
    checks = [check for name in wanted for check in _SUITES[name](args)]
    if not checks:
        raise UsageError(f"suite {args.suite!r} selects no checks with these bounds")
    passed = all(c["pass"] for c in checks)
    print(canonical_json({"suite": args.suite, "pass": passed, "checks": checks}))
    return 0 if passed else 1


# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Reports a bad flag as one `error:` line, like every other usage error;
    the subparsers inherit this class."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def _table_arguments(p):
    p.add_argument("family", choices=sorted([*stirling.FAMILIES, *_BELL]))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int)
    p.add_argument("--s", type=int)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--eval-lambda", dest="eval_lam", type=_rat, default=None,
                   help="evaluate every entry at this rational value of l")
    p.set_defaults(func=cmd_table)


def _normal_order_arguments(p):
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.set_defaults(func=cmd_normal_order)


def _verify_arguments(p):
    p.add_argument("--suite", choices=(*_SUITES, "all"), default="all")
    p.add_argument("--max-n", dest="max_n", type=int, default=4)
    p.add_argument("--max-r", dest="max_r", type=int, default=3)
    p.add_argument("--max-s", dest="max_s", type=int, default=3)
    p.add_argument("--order", type=int, default=10)
    p.add_argument("--tol", type=_rat, default=Fraction(1, 10 ** 12))
    p.set_defaults(func=cmd_verify)


def _dobinski_arguments(p):
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--x", type=_rat, required=True)
    p.add_argument("--lambda", dest="lam", type=_rat, required=True)
    p.add_argument("--tol", type=_rat, default=Fraction(1, 10 ** 12))
    p.set_defaults(func=cmd_dobinski)


# command -> (its help line, the function that adds its arguments to a parser)
_COMMANDS = {
    "table": ("print one coefficient row", _table_arguments),
    "normal-order": ("normal form of the degenerate product", _normal_order_arguments),
    "verify": ("run an identity suite; exit 1 on failure", _verify_arguments),
    "dobinski": ("evaluate one Dobinski-style series", _dobinski_arguments),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="degenstirling",
        description="Exact degenerate Stirling/Bell/Lah tables, boson normal "
                    "ordering, and series verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, add_arguments) in _COMMANDS.items():
        add_arguments(sub.add_parser(name, help=help_line))
    return parser


def _command_parser(name: str) -> argparse.ArgumentParser:
    """The parser of one command alone: the subparser build_parser() gives
    it, with the same class, prog and arguments."""
    parser = _Parser(prog=f"degenstirling {name}")
    _COMMANDS[name][1](parser)
    return parser


def main(argv=None) -> int:
    argv = _join_negative_rationals(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] in _COMMANDS:
        # argparse would hand every later token to this command's subparser
        args = _command_parser(argv[0]).parse_args(argv[1:])
    else:
        args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry():
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe (`| head`): keep the flush at exit quiet too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    entry()
