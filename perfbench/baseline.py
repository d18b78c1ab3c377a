"""Measure the benchmark twice over ten seeds and write perfbench/baseline.json.

Usage (from the root of a checkout):
    python3 perfbench/baseline.py

Runs ``run.py`` on every workload of BENCHMARK.json at seeds 1-10, with
its ``run_seconds``, one run at a time, for two sets of runs of the same
code.  The two sets are interleaved (seed 1 of set 1, seed 1 of set 2,
then seed 2, ...), so a change in the host's speed during the session
falls on both sets alike.  For every end-to-end metric and each set it
records the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the quartile
distance as a share of the median.  It then compares the sets: a metric
is "within_bound" when each set's spread (except that of setup_s) and
the shift between the two medians stay within the metric's bound, and
"unresolved" otherwise.  Last, one traced run per workload at seed 1
gives its per-layer table, including ``trace.overhead_s``.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SEEDS = list(range(1, 11))
SETS = 2
TRACE_SEED = 1
OUT = os.path.join("perfbench", "baseline.json")


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(runs: list[dict], bench: dict) -> dict:
    table = {}
    for metric in bench["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        table[metric["name"]] = {
            "unit": metric["unit"], "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf"), "values": values}
    return {"metrics": table,
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "correct": [r["correct"] for r in runs]}


def agreement(sets: list[dict], bench: dict) -> dict:
    """Per metric: the largest spread, the shift of the second set's
    median from the first's (as a share of the first), and the status."""
    out = {}
    for metric in bench["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        first, second = (s["metrics"][name] for s in sets)
        spread = max(first["spread"], second["spread"])
        shift = ((second["median"] - first["median"]) / first["median"]
                 if first["median"] else float("inf"))
        ok = abs(shift) <= bound and (name == "setup_s" or spread <= bound)
        out[name] = {"bound": bound, "max_spread": spread, "median_shift": shift,
                     "status": "within_bound" if ok else "unresolved"}
    return out


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    runs = {(w, i): [] for w in names for i in range(SETS)}
    for seed in SEEDS:
        for workload in names:
            for i in range(SETS):
                result = run_once(workload, seed, seconds, 0)
                runs[workload, i].append(result)
                print(f"set {i + 1} {workload:15s} seed {seed:2d} "
                      f"wall_s={result['metrics']['wall_s']['value']:.4f}", flush=True)

    summary: dict = {
        "about": ("Baseline of the seed commit's program. Two interleaved sets "
                  "of untraced runs (seeds 1-10 per workload), each metric's "
                  "median, quartiles and spread per set, the agreement of the "
                  "sets against each metric's bound, and one traced run per "
                  "workload (seed 1). Regenerate with: "
                  "python3 perfbench/baseline.py"),
        "hardware": (f"{os.cpu_count()}-CPU {platform.system()} "
                     f"{platform.machine()}, Python {platform.python_version()}"),
        "run_seconds": seconds, "seeds": SEEDS,
        "sets": [], "agreement": {}, "traced": {}}
    for i in range(SETS):
        summary["sets"].append({w: summarise(runs[w, i], bench) for w in names})
    for workload in names:
        table = agreement([s[workload] for s in summary["sets"]], bench)
        summary["agreement"][workload] = table
        for name, row in table.items():
            print(f"{workload:15s} {name:20s} spread<={row['max_spread']:.4f} "
                  f"shift={row['median_shift']:+.4f} bound={row['bound']} "
                  f"{row['status']}", flush=True)
    for workload in names:
        traced = run_once(workload, TRACE_SEED, seconds, 1)
        summary["traced"][workload] = {
            "seed": TRACE_SEED,
            "metrics": {k: v["value"] for k, v in traced["metrics"].items()}}
        print(f"{workload:15s} trace.overhead_s="
              f"{traced['metrics']['trace.overhead_s']['value']:.4f}", flush=True)
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
