"""Run the benchmark over several seeds and record medians, spreads and digests.

    python3 perfbench/baseline.py [--out perfbench/baseline.json]

Run it from the root of a checkout.  For each workload it makes ``RUNS``
untraced runs with seeds 1..RUNS, one after another, and reports for each
end-to-end metric the median, the quartiles and the spread, which is the
distance between the quartiles as a share of the median; a spread above a
third of the metric's bound is flagged.  It then makes ``TRACED`` traced
runs with seed 1 and checks that every count repeats exactly.  The
workloads, ``run_seconds`` and the bounds come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"
RUNS = 10
TRACED = 2


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True,
    )
    lines = proc.stdout.splitlines()
    record = next(json.loads(line[7:]) for line in lines if line.startswith("record "))
    return {"result": json.loads(lines[-1]), "record": record}


def spread(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    seconds = spec["run_seconds"]
    doc = {"run_seconds": seconds, "runs_per_workload": RUNS, "workloads": {}}
    for workload in [w["name"] for w in spec["workloads"]]:
        runs = [run_once(workload, seed, seconds, 0) for seed in range(1, RUNS + 1)]
        entry = {"end_to_end": {}, "runs": []}
        for name, bound in bounds.items():
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            stats = spread(values)
            stats.update(unit=runs[0]["result"]["metrics"][name]["unit"], bound=bound)
            entry["end_to_end"][name] = stats
            flag = "" if stats["spread"] < bound / 3 else "  <-- above bound/3"
            print(f"{workload:13s} {name:12s} median {stats['median']:.6g} "
                  f"spread {stats['spread']:.3f} bound {bound}{flag}", flush=True)
        for r in runs:
            rec = r["record"]
            entry["runs"].append({
                "seed": rec["seed"], "correct": r["result"]["correct"],
                "attempted": r["result"]["attempted"], "failed": r["result"]["failed"],
                "passes": rec["passes"], "stdout_sha256": rec["stdout_sha256"],
                "loadavg_before": rec["loadavg_before"], "loadavg_after": rec["loadavg_after"],
            })
        doc.setdefault("record", {k: runs[0]["record"][k] for k in
                                  ("git_commit", "source_sha256", "python", "cpu_model", "nproc")})
        traced = [run_once(workload, 1, seconds, 1) for _ in range(TRACED)]
        metrics = [t["result"]["metrics"] for t in traced]
        exact = [k for k in metrics[0] if k.endswith(".calls") or k.startswith("cache.")
                 or k in ("bell.terms_used", "bell.tail_use", "cli.out_bytes")]
        repeats = all(m[k] == metrics[0][k] for m in metrics for k in exact)
        entry["per_layer"] = {"seed": 1, "runs": TRACED, "counts_repeat_exactly": repeats,
                              "metrics": metrics[0]}
        print(f"{workload:13s} traced: counts repeat exactly: {repeats}; trace.overhead_s "
              f"{metrics[0]['trace.overhead_s']['value']:.3f}", flush=True)
        entry["all_correct"] = all(r["result"]["correct"] for r in runs + traced)
        doc["workloads"][workload] = entry

    text = json.dumps(doc, indent=1) + "\n"
    if args.out:
        args.out.write_text(text)
    return 0 if all(w["all_correct"] for w in doc["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
