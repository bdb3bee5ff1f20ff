"""Package hygiene: exported names resolve, and no check relies on assert."""

import ast
import importlib
import pkgutil
from pathlib import Path

import degenstirling
from degenstirling import stirling

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
