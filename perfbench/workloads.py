"""Seeded request mixes for the four workloads, and the second route that
checks each answer.

Every request goes through ``degenstirling.cli.main(argv)`` except the two
series functions that have no CLI command (``dobinski_rr`` and
``gamma_formula_classical``), which the dobinski workload calls through the
Python API.  Each workload fixes the parameters that drive cost and lets
the seed pick the rest, so that every seed gives a mix of about the same
cost: the benchmark is judged on its spread over seeds.
"""

from __future__ import annotations

import csv
import io
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, factorial


@dataclass(frozen=True)
class Request:
    argv: tuple = ()          # CLI arguments, or () for an API call
    api: str = ""             # bell function name for an API call
    args: tuple = ()          # its positional arguments
    params: dict = field(default_factory=dict)  # what the checker needs


@dataclass(frozen=True)
class Workload:
    requests: list
    cold_per_request: bool    # clear caches before every request, else once per pass


def _rat(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def _canonical(text: str) -> bool:
    return json.dumps(json.loads(text), separators=(",", ":")) + "\n" == text


# ---------------------------------------------------------------------------
# table: all eight families, small to mid n, some repeats within a pass

# family -> the (n, r, s) of its requests, r and s None where unused.  The
# shapes are fixed so that every seed costs about the same; the seed picks
# formats, values of l, the order and which requests repeat.  Shared shapes
# (stirling-rs/bell-rs, r-stirling/r-bell) let one request reuse another's
# cached row.
_TABLE = {
    "stirling2": [(n, None, None) for n in (2, 4, 6, 8)],
    "stirling-rs": [(2, 3, 2), (3, 2, 1), (4, 3, 2), (5, 2, 2)],
    "stirling-rr": [(2, 2, None), (3, 1, None), (4, 2, None), (5, 1, None)],
    "r-stirling": [(3, 1, None), (6, 2, None), (9, 0, None), (12, 3, None)],
    "lah": [(n, None, None) for n in (3, 6, 9, 12)],
    "lah-signed": [(n, None, None) for n in (3, 6, 9, 12)],
    "bell-rs": [(2, 2, 2), (3, 2, 1), (4, 3, 2), (5, 3, 1)],
    "r-bell": [(3, 1, None), (6, 2, None), (9, 0, None), (12, 3, None)],
}
_TABLE_REPEATS = 8


def _table(rng: random.Random) -> Workload:
    reqs = []
    for family, shapes in _TABLE.items():
        # one CSV request and one --eval-lambda request per family
        csv_at, lam_at = rng.sample(range(len(shapes)), 2)
        for i, (n, r, s) in enumerate(shapes):
            p = {"family": family, "n": n, "csv": i == csv_at,
                 "lam": Fraction(rng.randint(-9, 9), rng.randint(1, 9)) if i == lam_at else None}
            argv = ["table", family, "--n", str(n)]
            for name, value in (("r", r), ("s", s)):
                if value is not None:
                    p[name] = value
                    argv += [f"--{name}", str(value)]
            if p["csv"]:
                argv += ["--format", "csv"]
            if p["lam"] is not None:
                argv.append(f"--eval-lambda={_rat(p['lam'])}")
            reqs.append(Request(argv=tuple(argv), params=p))
    rng.shuffle(reqs)
    for _ in range(_TABLE_REPEATS):
        i = rng.randrange(len(reqs))
        reqs.insert(rng.randint(i + 1, len(reqs)), reqs[i])
    return Workload(reqs, cold_per_request=False)


def _newton_row(values: list) -> list:
    """Falling-basis coefficients c_k = (Delta^k p)(0) / k! from p(0..d)."""
    return [
        sum(((-1) ** (k - j) * comb(k, j)) * values[j] for j in range(k + 1)) / factorial(k)
        for k in range(len(values))
    ]


def table_row(pkg, p: dict) -> list:
    """The row by a route that shares no code with the closed forms: the
    Weyl engine for the (r, s) families, Newton differences of the defining
    product for the shifted and Lah-signed families."""
    alg, weyl = pkg.algebra, pkg.weyl
    lam, n, family = alg.LAMBDA, p["n"], p["family"]
    rs = {
        "stirling2": (1, 1), "stirling-rs": (p.get("r"), p.get("s")),
        "stirling-rr": (p.get("r"), p.get("r")), "bell-rs": (p.get("r"), p.get("s")),
        "lah": (2, 1),
    }
    if family in rs:
        r, s = rs[family]
        return weyl.extract_stirling(weyl.degenerate_product(n, r, s), n, r, s)
    one = alg.LambdaPoly.one()
    if family in ("r-stirling", "r-bell"):
        # (x + r)_{n,l} at x = 0..n
        values = []
        for x in range(n + 1):
            v = one
            for i in range(n):
                v = v * (x + p["r"] - i * lam)
            values.append(v)
        return _newton_row(values)
    # lah-signed: prod_i (x - (i-1) + (n-i) l) in the rising basis; with
    # q(y) = p(-y), the rising coefficient c_k is (-1)^k times q's falling one
    values = []
    for y in range(n + 1):
        v = one
        for i in range(1, n + 1):
            v = v * (-y - (i - 1) + (n - i) * lam)
        values.append(v)
    return [c * (-1) ** k for k, c in enumerate(_newton_row(values))]


def _table_check(pkg, p: dict, text: str) -> str | None:
    alg = pkg.algebra
    rows = table_row(pkg, p)
    if p["lam"] is not None:
        rows = [c(p["lam"]) for c in rows]
    if p["csv"]:
        out = io.StringIO()
        writer = csv.writer(out, quoting=csv.QUOTE_NONNUMERIC, lineterminator="\n")
        for k, c in enumerate(rows):
            writer.writerow([k, str(c) if isinstance(c, alg.LambdaPoly) else _rat(c)])
        expected = out.getvalue()
    else:
        if not _canonical(text):
            return "stdout is not canonical JSON"
        doc = {"family": p["family"], "n": p["n"]}
        doc.update((k, p[k]) for k in ("r", "s") if k in p)
        if p["lam"] is not None:
            doc["lambda"] = _rat(p["lam"])
            doc["rows"] = [{"k": k, "coeff": _rat(c)} for k, c in enumerate(rows)]
        else:
            doc["rows"] = [{"k": k, "coeff": [_rat(q) for q in c.coeffs]} for k, c in enumerate(rows)]
        expected = json.dumps(doc, separators=(",", ":")) + "\n"
    return None if text == expected else "row differs from the second route"


# ---------------------------------------------------------------------------
# normal-order: Weyl products up to n = 20, r = 5

# The 32 (n, r, s) shapes of every pass.  They were chosen by measured
# time: the 300 shapes with n <= 20 and 1 <= s <= r <= 5 were each timed
# cold, and from the 244 that took at most 160 ms every eighth was kept,
# from 1 ms (n=1) to 160 ms (n=20, r=5).  A pass takes about 1.5 s, so a
# run holds enough passes for a steady fastest time per request; the
# slowest shapes (up to 0.6 s for n=20, r=s=5) would leave a run a handful.
# The list is fixed so that every seed costs the same; the seed picks the
# order and the sampled entries.
_NORMAL_SHAPES = (
    (1, 3, 1), (1, 5, 1), (2, 2, 2), (2, 4, 2), (3, 1, 1), (3, 3, 3), (3, 5, 5), (5, 2, 1),
    (4, 4, 3), (5, 3, 2), (5, 5, 2), (7, 2, 2), (5, 5, 4), (7, 3, 3), (9, 2, 2), (8, 3, 2),
    (10, 2, 2), (7, 5, 3), (8, 4, 4), (15, 2, 1), (8, 5, 5), (10, 4, 2), (9, 4, 4), (17, 2, 2),
    (11, 4, 2), (16, 5, 1), (10, 5, 3), (15, 3, 2), (20, 4, 1), (19, 2, 2), (16, 3, 2), (20, 5, 1),
)
_NORMAL_SAMPLES = 2


def _normal_order(rng: random.Random) -> Workload:
    reqs = []
    for n, r, s in _NORMAL_SHAPES:
        ks = sorted(rng.sample(range(n * s + 1), min(_NORMAL_SAMPLES, n * s + 1)))
        argv = ("normal-order", "--n", str(n), "--r", str(r), "--s", str(s))
        reqs.append(Request(argv=argv, params={"n": n, "r": r, "s": s, "ks": ks}))
    rng.shuffle(reqs)
    return Workload(reqs, cold_per_request=True)


def _normal_check(pkg, p: dict, text: str) -> str | None:
    if not _canonical(text):
        return "stdout is not canonical JSON"
    n, r, s = p["n"], p["r"], p["s"]
    records = json.loads(text)
    keys = [(rec["i"], rec["j"]) for rec in records]
    if keys != sorted(set(keys), reverse=True):
        return "terms are not in strictly descending order"
    if any(i - j != n * (r - s) or not 0 <= j <= n * s for i, j in keys):
        return "term off the diagonal i - j = n(r - s)"
    by_j = {rec["j"]: rec["coeff"] for rec in records}
    for k in p["ks"]:
        want = [_rat(q) for q in pkg.stirling.stirling_rs_degenerate(n, k, r, s).coeffs]
        if by_j.get(k, []) != want:
            return f"entry k={k} differs from stirling_rs_degenerate"
    return None


# ---------------------------------------------------------------------------
# dobinski: certified series at tolerances from 1e-12 to 1e-300

_DOBINSKI_SLOTS = 60
_DOBINSKI_X = (Fraction(1, 3), Fraction(1), Fraction(5, 2), Fraction(4), Fraction(7))


def _dobinski(rng: random.Random) -> Workload:
    # The cost factors (series kind, n, r, s, x, tolerance) follow a fixed
    # pattern over the slots, so every seed costs about the same; the seed
    # picks the value and sign of l, and the order.  One slot in five
    # calls an API-only series function.
    reqs = []
    for i in range(_DOBINSKI_SLOTS):
        tol = Fraction(1, 10 ** (12 + round(288 * i / (_DOBINSKI_SLOTS - 1))))
        x = _DOBINSKI_X[i % len(_DOBINSKI_X)]
        lam = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), 1 + i % 4)
        n, s = 1 + i % 4, 1 + (i // 4) % 3
        if i % 10 == 3:  # the balanced series, r = s
            p = {"n": n, "r": s, "s": s, "x": x, "lam": lam, "tol": tol}
            reqs.append(Request(api="dobinski_rr", args=(n, s, x, lam, tol), params=p))
        elif i % 10 == 8:  # the classical Gamma-ratio series: x = 1, l = 0, r > s
            r = s + 1 + (i // 20) % 2
            p = {"n": n, "r": r, "s": s, "x": Fraction(1), "lam": Fraction(0), "tol": tol}
            reqs.append(Request(api="gamma_formula_classical", args=(n, r, s, tol), params=p))
        else:
            r = s + (i // 12) % 2
            argv = ("dobinski", "--n", str(n), "--r", str(r), "--s", str(s), "--x", _rat(x),
                    f"--lambda={_rat(lam)}", "--tol", _rat(tol))
            p = {"n": n, "r": r, "s": s, "x": x, "lam": lam, "tol": tol}
            reqs.append(Request(argv=argv, params=p))
    rng.shuffle(reqs)
    return Workload(reqs, cold_per_request=True)


def api_text(result) -> str:
    """Canonical text of a DobinskiResult, so API answers are digested too."""
    return json.dumps({"value": _rat(result.value), "terms_used": result.terms_used,
                       "tail_bound": _rat(result.tail_bound)}, separators=(",", ":")) + "\n"


def _dobinski_check(pkg, p: dict, text: str) -> str | None:
    if not _canonical(text):
        return "stdout is not canonical JSON"
    doc = json.loads(text)
    value, tail = Fraction(doc["value"]), Fraction(doc["tail_bound"])
    exact = pkg.bell.bell_rs_poly(p["n"], p["r"], p["s"])(p["x"])(p["lam"])
    if doc["terms_used"] < 1:
        return "no terms summed"
    if not abs(value - exact) <= tail <= p["tol"]:
        return "value not within tail_bound of bell_rs_poly, or tail_bound above tol"
    return None


# ---------------------------------------------------------------------------
# verify: every suite of the release gate, with the EGF series at order 6
#
# A pass is the four suites of `verify --suite all`, in its order, each as
# its own request, with caches cleared once at the start of the pass as
# one `verify` run has them.  Split so, a pass is four requests of 0.1-0.6 s
# instead of one of 1.5 s, and each sits between two reference timings
# less than a second apart (see run.py), which track the host's speed.
# The default order 10 makes the EGF suite one 3.5 s request, of which a
# run holds a handful on a shared host; at order 6 the same 186 checks run.
_VERIFY_ORDER = 6
_VERIFY_SUITES = ("oracles", "egf", "recurrence", "dobinski")


def verify_check_counts(max_n=4, max_r=3, max_s=3, order=10) -> dict:
    """Number of checks each suite of `verify` must report for these flags."""
    pairs = sum(min(r, max_s) for r in range(1, max_r + 1))
    gamma = sum(r - 1 for r in range(2, max_r + 1))
    return {
        "oracles": 3 * pairs * max_n + max_r * (max_n + 1) + max_n,
        "egf": min(6, order) + 1 + 1 + (max_r + 1) + max_r,
        "recurrence": (max_r + 1) * (max_n + 1),
        "dobinski": pairs * max_n + 2 * max_r * max_n + gamma * max_n,
    }


def _verify(rng: random.Random) -> Workload:
    reqs = [Request(argv=("verify", "--order", str(_VERIFY_ORDER), "--suite", suite),
                    params={"suite": suite}) for suite in _VERIFY_SUITES]
    return Workload(reqs, cold_per_request=False)


def _verify_check(pkg, p: dict, text: str) -> str | None:
    if not _canonical(text):
        return "stdout is not canonical JSON"
    doc = json.loads(text)
    checks = doc["checks"]
    expected = verify_check_counts(order=_VERIFY_ORDER)[p["suite"]]
    if doc["suite"] != p["suite"] or len(checks) != expected:
        return f"{len(checks)} checks reported for suite {doc['suite']}, {expected} expected"
    if len({c["identity"] for c in checks}) != len(checks):
        return "duplicate check identities"
    if doc["pass"] is not True or not all(c["pass"] is True for c in checks):
        return "a check failed"
    return None


BUILDERS = {"table": _table, "normal-order": _normal_order, "dobinski": _dobinski, "verify": _verify}
_CHECKERS = {"table": _table_check, "normal-order": _normal_check,
             "dobinski": _dobinski_check, "verify": _verify_check}


def build(name: str, seed: int) -> Workload:
    return BUILDERS[name](random.Random(seed))


def check(name: str, pkg, req: Request, text: str) -> str | None:
    """None if the answer agrees with the second route, else why not."""
    return _CHECKERS[name](pkg, req.params, text)


# ---------------------------------------------------------------------------
# the CLI examples printed in README.md, replayed byte for byte

README_EXAMPLES = (
    (("table", "stirling-rs", "--n", "2", "--r", "4", "--s", "2"),
     '{"family":"stirling-rs","n":2,"r":4,"s":2,"rows":[{"k":0,"coeff":["0/1","-2/1"]},'
     '{"k":1,"coeff":["0/1","-4/1"]},{"k":2,"coeff":["12/1","-1/1"]},{"k":3,"coeff":["8/1"]},'
     '{"k":4,"coeff":["1/1"]}]}\n'),
    (("table", "stirling-rs", "--n", "2", "--r", "4", "--s", "2", "--format", "csv"),
     '0,"-2*l"\n1,"-4*l"\n2,"12 - 1*l"\n3,"8"\n4,"1"\n'),
    (("normal-order", "--n", "2", "--r", "4", "--s", "2"),
     '[{"i":8,"j":4,"coeff":["1/1"]},{"i":7,"j":3,"coeff":["8/1"]},'
     '{"i":6,"j":2,"coeff":["12/1","-1/1"]},{"i":5,"j":1,"coeff":["0/1","-4/1"]},'
     '{"i":4,"j":0,"coeff":["0/1","-2/1"]}]\n'),
    (("dobinski", "--n", "2", "--r", "4", "--s", "2", "--x", "1", "--lambda", "1/2"),
     '{"n":2,"r":4,"s":2,"x":"1/1","lambda":"1/2","tol":"1/1000000000000",'
     '"value":"946479469794624297819117410831591/54084541131121415254179840000000",'
     '"terms_used":21,"tail_bound":"69337399458071387057/432676329048971322033438720000000"}\n'),
)
