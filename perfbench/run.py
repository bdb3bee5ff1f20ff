"""Cold-cache, closed-loop benchmark of the degenstirling CLI.

    python3 perfbench/run.py --workload {table,normal-order,dobinski,verify}
                             --seed N --seconds T --trace {0,1}

Run it from the root of a checkout; it imports the package from ``src/``.
One client in one thread sends each request only after the previous one
finished.  A pass is the workload's whole seeded request list; the run
repeats passes for about ``--seconds`` seconds.  Caches are cleared
before every request (``table`` and ``verify``: once at the start of
each pass), and the caches are found, not listed: every object with
``cache_clear`` in a ``degenstirling.*`` module.

After timing, every answer is checked by a second route (see
``workloads.py``), outside the timed region, and the four README CLI
examples are replayed byte for byte.  Output, all on stdout:

* one line per metric with its unit and sample count, and ``fail_ratio``;
* ``record {...}``: the run record (commit, seed, Python, CPU, nproc,
  load average before and after, sha256 of every answer's bytes);
* last line: ``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 0`` the metrics are the end-to-end ones.  With
``--trace 1`` the run alternates untraced passes and traced passes, which
have the spans of ``spans.py`` installed, and reports the per-layer
metrics; counts come from the first traced pass.

Times are scaled to a reference speed.  On a shared host the speed of a
core can swing by 2x for seconds at a time while the process keeps the
core (CPU time equals wall time, steal time stays 0), and no choice of
minimum or median over one run removes that: on a 2-vCPU host the fastest
pass moved by up to 35% from run to run.  So a fixed piece of pure-Python
work, ``reference_loop()``, is timed right before and right after every
request and every set-up, and each measured time is multiplied by
``REFERENCE_S`` over the mean of the two reference times next to it.  The
result reads as seconds on a host where the loop takes ``REFERENCE_S``;
the raw median pass time is printed next to ``wall_s``.  Each request's
scaled time is its median over the passes (the work is deterministic:
each request starts from the same cache state in every pass), and the
pass time is the sum of those.  Set-up is made ``SETUP_ROUNDS`` x
``SETUPS_PER_ROUND`` times, in rounds spread over the run, and reported
as the median of the scaled set-up times.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import itertools
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = "degenstirling"
SETUP_ROUNDS = 5
SETUPS_PER_ROUND = 5
TAIL_BEYOND = 10  # the tail percentile keeps at least this many samples above it
# about the fastest time of reference_loop() on a 2-vCPU Intel Xeon at
# 2.0 GHz under Python 3.11.7 (0.53 ms fastest, 0.86 ms median of 3000)
REFERENCE_S = 0.0005
_REFERENCE_DOC = {"rows": [{"k": k, "coeff": [f"{7 * k + j}/{k + 1}" for j in range(6)]}
                           for k in range(40)]}


def reference_loop() -> float:
    """Time of a fixed piece of pure-Python work much like the package's
    output path: print, parse and index JSON rows of rationals.  Over
    3-minute traces on a shared 2-vCPU host, when the host slowed the
    package this loop slowed about as much (log-log slope 1.0-1.3 for the
    verify and table passes), where a loop of big-integer arithmetic
    slowed much less (slope 1.5-1.9)."""
    start = time.perf_counter()
    for _ in range(6):
        doc = json.loads(json.dumps(_REFERENCE_DOC, separators=(",", ":")))
        {(row["k"], len(row["coeff"])): tuple(row["coeff"]) for row in doc["rows"]}
    return time.perf_counter() - start


def scaled(elapsed: float, ref_before: float, ref_after: float) -> float:
    """``elapsed`` in seconds at the reference speed."""
    return elapsed * REFERENCE_S * 2 / (ref_before + ref_after)


class BenchError(Exception):
    pass


class Package:
    """The freshly imported package modules, by layer name."""

    def __init__(self):
        for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
            del sys.modules[name]
        top = importlib.import_module(PACKAGE)
        if SRC not in Path(top.__file__).resolve().parents:
            raise BenchError(f"{PACKAGE} was imported from {top.__file__}, not from {SRC}")
        self.modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in spans.LAYERS}
        for layer, module in self.modules.items():
            setattr(self, layer, module)
        self.modules["__init__"] = top  # its re-exports are wrapped too when tracing


class Caches:
    """Cache statistics summed over the cold intervals of one pass."""

    def __init__(self):
        self.count = self.hits = self.misses = self.entries = 0

    def clear(self):
        """Clear every cache in the package's module namespaces and add what
        they did since the previous clear."""
        found = {}
        for name, module in list(sys.modules.items()):
            if name == PACKAGE or name.startswith(PACKAGE + "."):
                for obj in vars(module).values():
                    clear = getattr(obj, "cache_clear", None)
                    if callable(clear):
                        found[id(getattr(clear, "__self__", clear))] = obj
        if not found:
            raise BenchError(f"no cache with cache_clear found in {PACKAGE}; caches cannot be made cold")
        entries = 0
        for obj in found.values():
            info = obj.cache_info()
            self.hits += info.hits
            self.misses += info.misses
            entries += info.currsize
            obj.cache_clear()
        self.count = len(found)
        self.entries = max(self.entries, entries)


class SetUps:
    """Timed set-ups: a fresh import of the package, the seeded inputs and
    cold caches.  A round of them is due every ``seconds / SETUP_ROUNDS``
    from ``start``, so that their median is not one moment's reading of a
    host whose speed drifts.  Each pass uses the newest package."""

    def __init__(self, name: str, seed: int, start: float, seconds: float):
        self.name, self.seed = name, seed
        self.times = []
        self.due = [start + i * seconds / SETUP_ROUNDS for i in range(SETUP_ROUNDS)]

    def round(self):
        self.due.pop(0)
        for _ in range(SETUPS_PER_ROUND):
            ref = reference_loop()
            start = time.perf_counter()
            self.pkg = Package()
            self.workload = workloads.build(self.name, self.seed)
            Caches().clear()
            elapsed = time.perf_counter() - start
            self.times.append(scaled(elapsed, ref, reference_loop()))

    def current(self) -> tuple[Package, workloads.Workload]:
        """The package and inputs for the next pass, after a round if one is due."""
        if self.due and time.perf_counter() >= self.due[0]:
            self.round()
        return self.pkg, self.workload

    def finish(self):
        """Make the rounds that fell due after the last pass."""
        while self.due:
            self.round()


def execute(pkg: Package, req: workloads.Request):
    """Run one request; return (seconds, stdout text, error or None)."""
    out, err = io.StringIO(), io.StringIO()
    code, error = 0, None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if req.api:
                result = getattr(pkg.bell, req.api)(*req.args)
            else:
                code = pkg.cli.main(list(req.argv))
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a request that raises is counted as failed
        error = f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    text = out.getvalue()
    if req.api and error is None:
        text = workloads.api_text(result)
    if code != 0 and error is None:
        error = f"exit code {code}: {err.getvalue().strip()[:200]}"
    return elapsed, text, error


class Pass:
    """One pass over the workload's requests.  Only the first pass keeps
    its answers; later ones compare theirs with ``reference`` as they go,
    so that memory held by the benchmark does not grow with the pass count."""

    def __init__(self, pkg: Package, workload: workloads.Workload, reference=None, tracer=None):
        self.tracer = tracer
        self.latencies, self.costs, self.texts, self.errors = [], [], [], []
        self.out_bytes = 0
        uninstall = tracer.install(pkg.modules) if tracer else None
        try:
            start = time.perf_counter()
            Caches().clear()  # what ran before the pass is not counted
            self.caches = Caches()
            ref = reference_loop()
            refs = [ref]
            for i, req in enumerate(workload.requests):
                if workload.cold_per_request and i:
                    self.caches.clear()
                elapsed, text, error = execute(pkg, req)
                ref_after = reference_loop()
                self.costs.append(scaled(elapsed, ref, ref_after))
                refs.append(ref_after)
                ref = ref_after
                if error is None and reference is not None and text != reference[i]:
                    error = "answer changed between passes"
                self.latencies.append(elapsed)
                self.errors.append(error)
                if reference is None:
                    self.texts.append(text)
                if req.argv:
                    self.out_bytes += len(text.encode())
            self.caches.clear()
            self.wall = time.perf_counter() - start
            # raw seconds -> scaled; not statistics.mean, which builds Fractions
            self.scale = REFERENCE_S * len(refs) / sum(refs)
        finally:
            if uninstall:
                uninstall()


def run_passes(deadline: float, *kinds) -> None:
    """Make passes of each kind in turn, ``(make_pass, done)`` pairs, while
    the next one, at the median time of its kind, would end by ``deadline``
    (a ``time.perf_counter`` reading)."""
    for make_pass, done in itertools.cycle(kinds):
        if time.perf_counter() + statistics.median(p.wall for p in done) > deadline:
            return
        done.append(make_pass())


def tail(samples: list) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with at least
    TAIL_BEYOND samples beyond it; the maximum if there are too few."""
    ordered = sorted(samples)
    if len(ordered) <= TAIL_BEYOND:
        return ordered[-1], 100.0
    i = len(ordered) - TAIL_BEYOND - 1
    return ordered[i], 100.0 * (i + 1) / len(ordered)


def check_answers(name: str, pkg: Package, workload, passes: list) -> list:
    """Check the first pass by the second route; return one message per
    failed request over all passes (later passes were compared with the
    first as they ran)."""
    verdicts = []
    for req, text, error in zip(workload.requests, passes[0].texts, passes[0].errors):
        if error is None:
            try:
                error = workloads.check(name, pkg, req, text)
            except (ValueError, KeyError, TypeError, ArithmeticError) as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
        verdicts.append(error)
    return [
        f"{' '.join(req.argv) or req.api}: {error or verdict}"
        for p in passes
        for req, verdict, error in zip(workload.requests, verdicts, p.errors)
        if error or verdict
    ]


def readme_checks(pkg: Package) -> list:
    """README CLI examples whose bytes differ."""
    bad = []
    for argv, expected in workloads.README_EXAMPLES:
        _, text, error = execute(pkg, workloads.Request(argv=argv))
        if error or text != expected:
            bad.append(" ".join(argv))
    return bad


def git_commit() -> str:
    """HEAD of the checkout if it is a git work tree, else "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / PACKAGE).rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def request_costs(passes: list) -> list:
    """Each request's median scaled time over the passes, in ms."""
    return [statistics.median(p.costs[i] for p in passes) * 1000
            for i in range(len(passes[0].costs))]


def end_to_end(passes: list, setups: list, peak_rss_mb: float) -> tuple[dict, dict]:
    """End-to-end metrics, and how each was sampled."""
    n_req, n_pass = len(passes[0].latencies), len(passes)
    # p50 and tail are taken over requests, so they do not depend on how
    # many passes fit
    per_request = request_costs(passes)
    wall = sum(per_request) / 1000
    tail_ms, pct = tail(per_request)
    over = f"{n_req} requests, each the median of {n_pass} passes"
    raw_wall = statistics.median(sum(p.latencies) for p in passes)
    return {
        "setup_s": metric(statistics.median(setups), "s"),
        "wall_s": metric(wall, "s"),
        "ops_per_s": metric(n_req / wall, "1/s"),
        "op_p50_ms": metric(statistics.median(per_request), "ms"),
        "op_tail_ms": metric(tail_ms, "ms"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
    }, {
        "setup_s": f"median of {len(setups)} scaled set-ups",
        "wall_s": f"sum of {over}; raw median pass {raw_wall:.6g} s",
        "ops_per_s": f"{n_req} requests over wall_s",
        "op_p50_ms": f"median of {over}",
        "op_tail_ms": f"p{pct:.1f} of {over}",
        "peak_rss_mb": "peak resident set of the process after the timed passes",
    }


def per_layer(traced: list, untraced: list) -> tuple[dict, dict]:
    """Per-layer metrics: counts from the first traced pass, times the
    median over traced passes, each scaled by its pass's reference times."""
    first = traced[0]
    calls = first.tracer.calls
    metrics = {}

    def scaled_median(kind: str, layer: str) -> float:
        return statistics.median(getattr(p.tracer, kind)[layer] * p.scale for p in traced)

    for layer in spans.LAYERS:
        if layer != "cli":
            metrics[f"{layer}.busy_s"] = metric(scaled_median("busy", layer), "s")
        metrics[f"{layer}.self_s"] = metric(scaled_median("self_time", layer), "s")
        metrics[f"{layer}.calls"] = metric(calls[f"{layer}.calls"], "count")
    for name in spans.NAMED_COUNTERS:
        metrics[name] = metric(calls[name], "count")
    metrics["algebra.fraction_new.calls"] = metric(first.tracer.fractions, "count")
    metrics["bell.terms_used"] = metric(first.tracer.terms_used(), "count")
    metrics["bell.tail_use"] = metric(first.tracer.tail_use(), "ratio")
    metrics["cli.out_bytes"] = metric(first.out_bytes, "B")
    caches = first.caches
    lookups = caches.hits + caches.misses
    metrics["cache.count"] = metric(caches.count, "count")
    metrics["cache.hits"] = metric(caches.hits, "count")
    metrics["cache.misses"] = metric(caches.misses, "count")
    metrics["cache.hit_ratio"] = metric(caches.hits / lookups if lookups else 0.0, "ratio")
    metrics["cache.entries"] = metric(caches.entries, "count")
    overhead = (sum(request_costs(traced)) - sum(request_costs(untraced))) / 1000
    metrics["trace.overhead_s"] = metric(overhead, "s")
    return metrics, {
        "trace.overhead_s": f"traced minus untraced wall_s, as wall_s over {len(traced)} traced "
                            f"and {len(untraced)} untraced passes",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"error: {SRC / PACKAGE} not found; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    load_before = os.getloadavg()
    try:
        start = time.perf_counter()
        setups = SetUps(args.workload, args.seed, start, args.seconds)
        first = Pass(*setups.current())

        def again(tracer=None):
            return Pass(*setups.current(), first.texts, tracer)

        def traced_pass():
            return again(spans.Tracer())

        if args.trace:
            untraced, traced = [first], [traced_pass()]
            run_passes(start + args.seconds, (again, untraced), (traced_pass, traced))
            passes = untraced + traced
        else:
            passes = [first]
            run_passes(start + args.seconds, (again, passes))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        setups.finish()
        pkg, workload = setups.current()

        failures = check_answers(args.workload, pkg, workload, passes)
        failed, attempted = len(failures), len(workload.requests) * len(passes)
        if args.trace:
            counts = [(p.tracer.calls, p.tracer.fractions, p.caches.hits) for p in traced]
            if any(c != counts[0] for c in counts):
                failures.append("counts differ between traced passes")
            metrics, notes = per_layer(traced, untraced)
        else:
            metrics, notes = end_to_end(passes, setups.times, peak_rss_mb)
        readme_bad = readme_checks(pkg)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for name, m in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        value = m["value"] if isinstance(m["value"], int) else f"{m['value']:.6g}"
        print(f"{name} = {value} {m['unit']}{note}")
    print(f"fail_ratio = {failed / attempted:.6g}  ({failed} failed / {attempted} attempted)")
    print(f"readme_examples = {len(workloads.README_EXAMPLES) - len(readme_bad)}/"
          f"{len(workloads.README_EXAMPLES)} byte-identical")
    for line in failures[:10]:
        print(f"failure: {line}")
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "seconds": args.seconds,
        "git_commit": git_commit(), "source_sha256": source_digest(),
        "python": sys.version.split()[0], "cpu_model": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_before": load_before, "loadavg_after": os.getloadavg(),
        "passes": len(passes), "requests_per_pass": len(workload.requests),
        "stdout_sha256": hashlib.sha256("".join(first.texts).encode()).hexdigest(),
        "readme_failures": readme_bad,
    }
    print("record " + json.dumps(record, separators=(",", ":")))
    correct = not failures and not readme_bad
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
