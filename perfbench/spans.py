"""Per-layer spans installed from outside the package, for traced passes only.

A layer is one module of the package.  Its public functions, and the
arithmetic operators of the classes it defines, are replaced by wrappers
that count calls and time the span.  Timing follows two rules:

* busy time counts only the outermost span of a layer, so nested calls
  inside the same layer are not counted twice;
* self time is charged to the innermost open layer, so a layer's self
  time is its busy time minus the spans of the layers it calls.

Calls that stay inside the layer that is already innermost only bump a
counter; that keeps the wrappers cheap on the arithmetic tower, where most
calls are nested.  ``Fraction.__new__`` is counted too, because building
``Fraction`` objects is the largest cost of the bottom layer.
"""

from __future__ import annotations

import inspect
import statistics
import time
from collections import Counter
from fractions import Fraction

LAYERS = ("algebra", "weyl", "stirling", "bell", "serieslab", "cli")

# operators of the tower (and of NormalForm) that get a span
_OPERATORS = (
    "__init__", "__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
    "__mul__", "__rmul__", "__truediv__", "__pow__", "__call__",
)

# named counters: which wrapped callables feed them
_NAMED = {
    ("LambdaPoly", "__mul__"): "algebra.lp_mul.calls",
    ("LambdaPoly", "__rmul__"): "algebra.lp_mul.calls",
    ("LambdaPoly", "__add__"): "algebra.lp_add.calls",
    ("LambdaPoly", "__radd__"): "algebra.lp_add.calls",
    ("LambdaPoly", "__init__"): "algebra.lp_new.calls",
    ("XPoly", "__mul__"): "algebra.xp_mul.calls",
    ("XPoly", "__rmul__"): "algebra.xp_mul.calls",
    ("TruncatedSeries", "__mul__"): "algebra.ts_mul.calls",
    ("TruncatedSeries", "__rmul__"): "algebra.ts_mul.calls",
    ("NormalForm", "__mul__"): "weyl.nf_mul.calls",
    ("NormalForm", "__rmul__"): "weyl.nf_mul.calls",
    (None, "divmod_linear"): "algebra.divmod_linear.calls",
    (None, "_basis_expand"): "stirling.basis_expand.calls",
}

NAMED_COUNTERS = sorted(set(_NAMED.values()))

# private functions that carry a named counter and so need their own span
_PRIVATE = {"stirling": ("_basis_expand",)}


class Tracer:
    """Span and counter state for one traced pass."""

    def __init__(self):
        self.calls = Counter()
        self.busy = dict.fromkeys(LAYERS, 0.0)
        self.self_time = dict.fromkeys(LAYERS, 0.0)
        self.fractions = 0
        self.series = []  # (terms_used, tail_bound, tol) per certified series call
        self._stack = [None]
        self._mark = 0.0

    def wrap(self, layer: str, fn, counter: str | None = None, tol_at: int | None = None):
        """Return fn wrapped in a span of ``layer``.  ``tol_at`` is the
        position of a ``tol`` argument whose series result is recorded."""
        stack = self._stack
        calls = self.calls
        clock = time.perf_counter
        layer_key = f"{layer}.calls"
        tracer = self

        def span(*args, **kwargs):
            calls[layer_key] += 1
            if counter is not None:
                calls[counter] += 1
            if stack[-1] == layer:
                result = fn(*args, **kwargs)
            else:
                now = clock()
                outer = stack[-1]
                if outer is not None:
                    tracer.self_time[outer] += now - tracer._mark
                tracer._mark = now
                opened = layer not in stack
                stack.append(layer)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    stack.pop()
                    end = clock()
                    tracer.self_time[layer] += end - tracer._mark
                    tracer._mark = end
                    if opened:
                        tracer.busy[layer] += end - now
            if tol_at is not None:
                tol = kwargs["tol"] if "tol" in kwargs else args[tol_at]
                tracer.series.append((result.terms_used, result.tail_bound, tol))
            return result

        span.__name__ = getattr(fn, "__name__", "span")
        span.__wrapped__ = fn
        for attr in ("cache_clear", "cache_info"):
            if hasattr(fn, attr):
                setattr(span, attr, getattr(fn, attr))
        return span

    def install(self, modules: dict) -> "callable":
        """Wrap every layer of ``modules`` (layer name -> module object,
        plus any other package modules under other keys) and return a
        function that restores the originals."""
        restore = []
        namespaces = list(modules.values())

        def replace_everywhere(original, wrapper):
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        restore.append((ns, key, value))
                        setattr(ns, key, wrapper)

        for layer in LAYERS:
            module = modules[layer]
            names = list(getattr(module, "__all__", ())) + list(_PRIVATE.get(layer, ()))
            for name in names:
                obj = getattr(module, name)
                if isinstance(obj, type):
                    if obj.__module__ != module.__name__:
                        continue
                    for op in _OPERATORS:
                        if op in vars(obj):
                            original = vars(obj)[op]
                            restore.append((obj, op, original))
                            setattr(obj, op, self.wrap(layer, original, _NAMED.get((name, op))))
                elif inspect.isfunction(obj) or hasattr(obj, "cache_info"):
                    if getattr(obj, "__module__", None) != module.__name__:
                        continue
                    tol_at = None
                    if layer == "bell" and inspect.isfunction(obj):
                        params = list(inspect.signature(obj).parameters)
                        tol_at = params.index("tol") if "tol" in params else None
                    replace_everywhere(
                        obj, self.wrap(layer, obj, _NAMED.get((None, name)), tol_at)
                    )

        original_new = vars(Fraction)["__new__"]
        plain_new = original_new.__func__
        tracer = self

        def counted_new(cls, *args, **kwargs):
            tracer.fractions += 1
            return plain_new(cls, *args, **kwargs)

        Fraction.__new__ = counted_new
        restore.append((Fraction, "__new__", original_new))

        def uninstall():
            for target, key, value in reversed(restore):
                setattr(target, key, value)

        return uninstall

    def tail_use(self) -> float:
        """Median of tail_bound / tol over the certified series calls."""
        if not self.series:
            return 0.0
        return statistics.median(float(Fraction(t) / Fraction(tol)) for _, t, tol in self.series)

    def terms_used(self) -> int:
        return sum(used for used, _, _ in self.series)
