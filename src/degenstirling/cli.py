"""Command-line front end: tables, normal ordering, verification suites and
Dobinski evaluation.

Exit codes: 0 success, 1 a verification suite found a failing identity,
2 usage error (bad flags or parameters outside a family's domain).
JSON output is canonical: fixed key order, compact separators, every
rational serialised as "p/q"; re-serialising parsed output reproduces the
bytes exactly.

`main` builds only the parser of the command it is given, not all four,
and keeps none between calls.  Each parser asks the terminal for its width
once and gives that width to every help formatter argparse builds, which
otherwise asks again on each add_argument.  Parsers are still built per
call: a parser takes only 5-9 KB, but the garbage of one per call brings
full collections sooner; a process that re-imports the package, as the
benchmark's set-up does, frees each stale copy of it only at a full
collection, so held parsers, or no parser at all for a valid request,
raised its peak memory.

verify's oracles, egf and recurrence checks compare canonical int rows, and
build XPolys only for a failing egf check's first_mismatch.  They read rows
through the public readers (family_row, newton_row, r_bell_poly, bell_rs_poly,
stirling2_degenerate), so that a wrong row patched at one fails verify.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import shutil
import sys
from fractions import Fraction
from itertools import islice

from . import bell, serieslab, stirling, weyl
from .algebra import (
    LambdaPoly, XPoly, _cleared, _horner, _require_at_least, _require_order, _require_positive,
    _trimmed, rational_str,
)

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
    if args.eval_lam is None:
        csv_cell, json_cell = str, _poly_cells
    else:
        csv_cell = json_cell = lambda c: rational_str(c(args.eval_lam))

    if args.format == "csv":
        # what csv.QUOTE_NONNUMERIC writes: no cell holds a quote, a comma or a line break
        sys.stdout.write("".join(f'{k},"{csv_cell(c)}"\n' for k, c in enumerate(cells)))
        return 0

    doc = {"family": args.family, "n": args.n}
    for name in needs:
        doc[name] = getattr(args, name)
    if args.eval_lam is not None:
        doc["lambda"] = rational_str(args.eval_lam)
    doc["rows"] = [{"k": k, "coeff": json_cell(c)} for k, c in enumerate(cells)]
    print(canonical_json(doc))
    return 0


# ---------------------------------------------------------------------------
# normal-order

def cmd_normal_order(args) -> int:
    # the packed row itself, j descending: the NormalForm's terms in reverse key order.
    # The JSON text is written directly: a record holds two ints and rational_str
    # cells (digits, '-' and '/'), so its bytes are fixed and need no escaping, and
    # json.dumps of a dict per term cost more than decoding the row
    row = weyl.diagonal_row(args.n, args.r, args.s)
    shift = args.n * (args.r - args.s)
    print("[" + ",".join(
        f'{{"i":{shift + j},"j":{j},"coeff":["' + '","'.join(map(rational_str, row[j])) + '"]}'
        for j in range(len(row) - 1, -1, -1) if row[j]
    ) + "]")
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
        # the closed-form row S(n, k), k = 0..n*s+5, one difference table per (n, r, s)
        if (n, r, s) not in closed_rows:
            closed_rows[n, r, s] = stirling.newton_row("stirling-rs", n, r, s, upto=n * s + 5)
        return closed_rows[n, r, s]

    pairs = [(r, s) for r in range(1, max_r + 1) for s in range(1, min(r, max_s) + 1)]
    for r, s in pairs:
        for n in range(1, max_n + 1):
            closed = closed_row(n, r, s)
            engine = weyl.diagonal_row(n, r, s)  # the row degenerate_product wraps
            kernel = stirling.family_row("stirling-rs", n, r, s)
            bad = next((k for k in range(n * s + 1) if not
                        closed[k].coeffs == tuple(engine[k]) == kernel.coefficient(k).coeffs),
                       None)
            checks.append(_check(f"triple-oracle[n={n},r={r},s={s}]", bad is None,
                                 None if bad is None else f"first mismatch at k={bad}"))
            # Family.polynomial times den against BasisCoeffs.to_polynomial, in ints
            rows, den = _cleared(closed[:n * s + 1])
            lhs = stirling.FAMILIES["stirling-rs"]._int_polynomial(n, r, s)
            ok = _trimmed([[den * v for v in a] for a in lhs]) == _trimmed(
                stirling._from_basis(rows, True))
            checks.append(_check(f"factored-identity[n={n},r={r},s={s}]", ok))
            vanish = all(c.is_zero() for c in closed[n * s + 1:])
            checks.append(_check(f"vanish-beyond-ns[n={n},r={r},s={s}]", vanish,
                                 None if vanish else stirling._NOT_VANISHING))
    for r in range(1, max_r + 1):
        for n in range(1, max_n + 1):
            row = stirling.rr_basis_identity(n, r)
            closed = closed_row(n, r, r)[:n * r + 1]
            ok = all(row.coefficient(k) == c for k, c in enumerate(closed)) and all(
                row.coefficient(k).is_zero() for k in range(r)
            )
            checks.append(_check(f"balanced-basis-row[n={n},r={r}]", ok))
        first = stirling.stirling_rr_degenerate(1, r, r).coeffs
        checks.append(_check(f"balanced-first-row[r={r}]",
                             first == closed_row(1, r, r)[r].coeffs == (1,)))
    for n in range(1, max_n + 1):
        closed = closed_row(n, 2, 1)
        ok = all(stirling.lah_degenerate(n, k) == closed[k] for k in range(n + 1))
        checks.append(_check(f"lah-is-(2,1)-row[n={n}]", ok))
    return checks


def _suite_egf(order: int, max_r: int) -> list:
    # each power of e_l(t) - 1 is built once, from the one before
    powers = islice(serieslab._egf_powers(order), min(6, order) + 1)
    checks = [_egf_record(serieslab._stirling_egf_report(k, pw, order))
              for k, pw in enumerate(powers)]
    # the r = 0 shifted Bell series is the Bell series: summed once, reported as both
    r_bell = [_egf_record(serieslab.r_bell_egf_check(r, order)) for r in range(max_r + 1)]
    checks.append({**r_bell[0], "identity": "bell-egf"})
    checks.extend(r_bell)
    checks.extend(_egf_record(serieslab.rr_egf_check(r, order)) for r in range(1, max_r + 1))
    return checks


def _suite_recurrence(max_n: int, max_r: int) -> list:
    checks = []
    for r in range(max_r + 1):
        # bell.r_bell_recurrence in ints, each row read once per r: check n
        # reads rows k <= n of phi and phi_next, and its target phi[n + 1]
        polys = [bell.r_bell_poly(k, r) for k in range(max_n + 2)]
        polys_next = [bell.r_bell_poly(k, r + 1) for k in range(max_n + 1)]
        targets = [tuple(c.coeffs for c in p.coeffs) for p in polys]
        phi, phi_next = ([_cleared(p.coeffs)[0] for p in ps] for ps in (polys, polys_next))
        for n in range(max_n + 1):
            forms = bell._r_bell_forms(n, r, phi[:n + 1], phi_next[:n + 1])
            checks.append(_check(f"shifted-bell-recurrence[n={n},r={r}]",
                                 all(_trimmed(form) == targets[n + 1] for form in forms)))
    return checks


# the (x, l) points at which the dobinski suite sums each series
_LAMS = (Fraction(0), Fraction(1, 2), Fraction(1))
_XS = (Fraction(1, 2), Fraction(1), Fraction(2))
_GRID = tuple((xv, lam) for lam in _LAMS for xv in _XS)


def _suite_dobinski(max_n: int, max_r: int, max_s: int, tol: Fraction) -> list:
    checks = []
    # each Bell row built and cleared once, and each shape's nine series
    # summed once, in _GRID order: at s = r both checks read dobinski_rr's sums
    bell_rows, sums = {}, {}

    def bell_row(n, r, s):
        if (n, r, s) not in bell_rows:
            poly = bell.bell_rs_poly(n, r, s)
            bell_rows[n, r, s] = (poly, *_cleared(poly.coeffs))
        return bell_rows[n, r, s]

    def grid(n, r, s, rows, den):
        # the worst residual over the (x, l) grid, and whether every
        # tail_bound is within tol; the cleared row is read once per l, and
        # the worst |value - exact| is kept as an unreduced int pair wn/wd
        if (n, r, s) not in sums:
            sums[n, r, s] = [bell.dobinski_rr(n, r, xv, lam, tol) if s == r
                             else bell.dobinski_eval(n, r, s, xv, lam, tol)
                             for xv, lam in _GRID]
        wn, wd, tails_ok, cells = 0, 1, True, iter(sums[n, r, s])
        for lam in _LAMS:
            at_l = [_horner(row, lam.numerator, lam.denominator) for row in rows]
            scale = den * lam.denominator ** max(len(rows[0]) - 1, 0)
            for xv in _XS:
                res = next(cells)
                (a, b), (p, q) = res.value.as_integer_ratio(), xv.as_integer_ratio()
                d = scale * q ** (len(rows) - 1)  # the exact value is _horner(...) / d
                rn, rd = abs(a * d - _horner(at_l, p, q) * b), b * d
                if rn * wd > wn * rd:
                    wn, wd = rn, rd
                tails_ok = tails_ok and res.tail_bound <= tol
        return Fraction(wn, wd), tails_ok

    pairs = [(r, s) for r in range(1, max_r + 1) for s in range(1, min(r, max_s) + 1)]
    for r, s in pairs:
        for n in range(1, max_n + 1):
            worst, tails_ok = grid(n, r, s, *bell_row(n, r, s)[1:])
            checks.append(
                _check(f"dobinski-series[n={n},r={r},s={s}]", worst <= tol and tails_ok,
                       f"worst residual {rational_str(worst)}")
            )
    for r in range(1, max_r + 1):
        for n in range(1, max_n + 1):
            # the series against the Weyl engine's row, a route it shares nothing with
            rows, den = _cleared(weyl.extract_stirling(weyl.degenerate_product(n, r, r), n, r, r))
            worst, _ = grid(n, r, r, rows, den)
            checks.append(_check(f"dobinski-balanced[k={n},r={r}]", worst <= tol))
            ok = bell_row(n, r, r)[0] == XPoly(stirling.newton_row("stirling-rr", n, r))
            checks.append(_check(f"double-sum-identity[n={n},r={r}]", ok))
    for r in range(2, max_r + 1):
        for s in range(1, r):
            for n in range(1, max_n + 1):
                # the exact value at (x, l) = (1, 0): the rows' constant l-terms over den
                _, rows, den = bell_row(n, r, s)
                res = bell.gamma_formula_classical(n, r, s, tol)
                ok = abs(res.value - Fraction(sum(row[0] for row in rows), den)) <= tol
                checks.append(_check(f"gamma-ratio-series[n={n},r={r},s={s}]", ok))
    return checks


_SUITES = {
    "oracles": lambda args: _suite_oracles(args.max_n, args.max_r, args.max_s),
    "egf": lambda args: _suite_egf(args.order, args.max_r),
    "recurrence": lambda args: _suite_recurrence(args.max_n, args.max_r),
    "dobinski": lambda args: _suite_dobinski(args.max_n, args.max_r, args.max_s, args.tol),
}


def cmd_verify(args) -> int:
    # a bound below its least value would silently drop checks
    _require_at_least("--max-n", args.max_n, 0)
    _require_at_least("--max-r", args.max_r, 0)
    _require_at_least("--max-s", args.max_s, 1)
    # every suite refuses tol <= 0 and order < 0, not only the one that reads it
    _require_positive("tol", args.tol)
    _require_order(args.order)
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

    def __init__(self, **kwargs):
        # the width the stock HelpFormatter computes, read once: argparse
        # builds a formatter, which would read it again, on every add_argument
        width = shutil.get_terminal_size().columns - 2
        super().__init__(formatter_class=functools.partial(argparse.HelpFormatter, width=width),
                         **kwargs)

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
