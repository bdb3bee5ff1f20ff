"""Package hygiene: exported names resolve, no check relies on assert, and
an argument check formats its value only when it fails."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import degenstirling
from degenstirling import algebra, bell, serieslab, stirling, weyl
from degenstirling.algebra import X

SOURCE = Path(degenstirling.__file__).resolve().parent
MODULES = sorted(info.name for info in pkgutil.iter_modules([str(SOURCE)]))


def test_every_exported_name_resolves():
    # tools that walk a module's __all__ (the benchmark's tracer calls
    # getattr on each name) break on a stale export
    assert MODULES
    for name in MODULES:
        module = importlib.import_module(f"degenstirling.{name}")
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert missing == [], name


def test_no_invariant_depends_on_assert():
    # python -O strips assert statements, so no check in the package may be one
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_family_row_is_the_only_cache():
    # the other row routes are cheap enough to run cold, so a memo table
    # anywhere else would only hide what they cost
    modules = [degenstirling, *(importlib.import_module(f"degenstirling.{n}") for n in MODULES)]
    cached = {
        id(obj): obj
        for module in modules
        for obj in vars(module).values()
        if callable(getattr(obj, "cache_clear", None))
    }
    assert list(cached.values()) == [stirling.family_row]


def test_the_cli_imports_neither_dataclasses_nor_inspect():
    # every CLI process pays for the package's imports, and dataclasses,
    # through inspect, was the largest single one
    code = "import sys, degenstirling.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(SOURCE.parent))
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "[]\n")


def test_the_series_tower_is_not_in_the_package():
    # the Fraction series tower and the other test-only helpers live in
    # tests/series_tower.py; the package ships one series implementation
    moved = ["TruncatedSeries", "series_exp", "degenerate_exp_series", "gen_falling",
             "rising_scalar", "gen_falling_factorial", "rising_basis_poly"]
    for module in (degenstirling, algebra, stirling):
        assert [n for n in moved if hasattr(module, n)] == [], module.__name__
    assert not hasattr(algebra.XPoly, "at_lambda")
    assert not hasattr(weyl.NormalForm, "at_lambda")


# Python refuses str() of an int past 4300 digits by default, so a check
# that formats its value before testing it fails on this valid value
HUGE = 10 ** 5000


def test_a_valid_int_past_the_int_digit_limit_is_accepted():
    assert stirling.stirling2_degenerate(2, HUGE) == 0
    assert bell.bell_rs_poly(1, HUGE, 1) == X
    assert weyl.NormalForm({(HUGE, 0): 1}).coefficient(HUGE, 0) == 1


@pytest.mark.parametrize("call, message", [
    (lambda: bell.dobinski_eval(-HUGE, 1, 1, 1, 0, 1), f"n must be >= 1, got -1{'0' * 5000}"),
    (lambda: bell.bell_rs_poly(1, 1, HUGE), f"need integers r >= s >= 1, got r=1, s=1{'0' * 5000}"),
    (lambda: bell.gamma_formula_classical(1, 1, HUGE, 1),
     f"need integers r > s >= 1, got r=1, s=1{'0' * 5000}"),
    (lambda: serieslab.stirling_egf_check(HUGE, 2), f"need 0 <= k <= order, got 1{'0' * 5000}"),
    (lambda: weyl.NormalForm({(-HUGE, 0): 1}),
     f"operator powers must be nonnegative integers, got (-1{'0' * 5000}, 0)"),
], ids=["dobinski-n", "bell-s", "gamma-s", "egf-k", "normal-form-key"])
def test_an_invalid_int_past_the_int_digit_limit_is_named_exactly(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize("call, message", [
    (lambda: stirling.stirling2_degenerate(2, -1), "k must be >= 0, got -1"),
    (lambda: bell.dobinski_eval(False, 1, 1, 1, 0, 1), "n must be >= 1, got False"),
    (lambda: stirling.stirling2_degenerate(2, 1.0), "k must be >= 0, got 1.0"),
    (lambda: bell.bell_rs_poly(1, "3", 2), "need integers r >= s >= 1, got r='3', s=2"),
    (lambda: bell.bell_rs_poly(1, 1, 2), "need integers r >= s >= 1, got r=1, s=2"),
    (lambda: weyl.NormalForm({5: 1}), "operator powers must be nonnegative integers, got 5"),
    (lambda: weyl.NormalForm({(1, 2, 3): 1}),
     "operator powers must be nonnegative integers, got (1, 2, 3)"),
    (lambda: weyl.NormalForm({(1,): 1}), "operator powers must be nonnegative integers, got (1,)"),
], ids=["int", "bool", "float", "str", "r-below-s", "key-not-a-pair", "key-of-three",
        "key-of-one"])
def test_a_value_below_the_int_digit_limit_is_named_by_its_repr(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


class _Unprintable(int):
    """An int that refuses to be written, to catch a check that formats a
    value it accepts."""

    def __repr__(self):
        raise AssertionError(f"a passing check formatted {int(self)}")

    def __format__(self, spec):
        raise AssertionError(f"a passing check formatted {int(self)}")


@pytest.mark.parametrize("route, args", [
    (stirling.family_row, ("stirling-rs", 3, 3, 2)),
    (stirling.newton_row, ("stirling-rs", 3, 3, 2)),
    (stirling.stirling2_degenerate, (3, 2)),
    (weyl.diagonal_row, (3, 3, 2)),
    (bell.bell_rs_poly, (3, 3, 2)),
])
def test_a_passing_check_formats_nothing(route, args):
    expected = route(*args)
    quiet = [a if isinstance(a, str) else _Unprintable(a) for a in args]
    stirling.family_row.cache_clear()  # a cached row would skip the checks
    try:
        assert route(*quiet) == expected
    finally:
        stirling.family_row.cache_clear()
