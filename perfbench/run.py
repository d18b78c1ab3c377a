"""The orbitmax benchmark: one workload, one seed, checked outputs.

Usage (from the root of a checkout):
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The seed generates the workload's op list (``workloads.py``).  A pass
runs the whole list as a closed loop, one client and no think time, in
a fresh worker process with numeric libraries pinned to one thread.
Passes repeat until the next one would end after S seconds.  Every
output of every pass is checked against references computed here by
independent code (``reference.py``, ``check.py``); a failed check counts
the op as failed and is listed, never dropped.

Times of ops (``wall_s``, ``latency_p50_s``, ``latency_tail_s`` and
``trace.overhead_s``) are at a fixed reference speed of the host: the
worker scales each op's latency by a calibration computation run around
it (see ``worker.py``); the unscaled times are printed in the report.
``setup_s`` is unscaled.

With ``--trace 0`` the last line carries the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` untraced and traced passes alternate
and it carries the per-layer metrics, including the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import check  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 9
PASS_TIMEOUT_S = 120
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def tail_percentile(values: list[float]) -> tuple[int, float, int]:
    """Highest integer percentile (nearest rank) with at least ten samples
    beyond it: (percentile, value, samples beyond)."""
    ordered = sorted(values)
    n = len(ordered)
    for q in range(99, 0, -1):
        rank = math.ceil(q / 100 * n)
        if n - rank >= 10:
            return q, ordered[rank - 1], n - rank
    return 100, ordered[-1], 0


class Runner:
    def __init__(self, root: str, tmp: str):
        self.root, self.tmp = root, tmp
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"]
                                        if self.env.get("PYTHONPATH") else "")
        for var in THREAD_VARS:
            self.env[var] = "1"
        self._specs: dict[tuple, str] = {}

    def _spec(self, ops: list[dict], trace: bool, setup_only: bool = False) -> str:
        key = (id(ops), trace, setup_only)
        if key not in self._specs:
            path = os.path.join(self.tmp, f"spec-{len(self._specs)}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"ops": ops, "trace": trace, "setup_only": setup_only,
                           "tmp": self.tmp}, fh)
            self._specs[key] = path
        return self._specs[key]

    def run_pass(self, ops: list[dict], trace: bool = False,
                 setup_only: bool = False) -> dict:
        """One worker process; a crash or timeout fails every op of the pass."""
        spec = self._spec(ops, trace, setup_only)
        spawned = time.perf_counter()
        # own process group, so a timeout also stops the worker's CLI children
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"), spec, repr(spawned)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=self.env,
            cwd=self.root, start_new_session=True)
        try:
            stdout, stderr = proc.communicate(timeout=PASS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return {"crash": f"worker timed out after {PASS_TIMEOUT_S} s"}
        lines = stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return {"crash": f"worker exited with code {proc.returncode}: "
                             f"{stderr.strip()[-300:]}"}
        return json.loads(lines[-1])


def materialise_cli_inputs(ops: list[dict], tmp: str) -> None:
    """Write each CLI op's input files and build its argv."""
    for op in ops:
        if op["kind"] != "cli":
            continue
        argv = [op["command"]]
        for flag, doc in op["files"].items():
            path = os.path.join(tmp, f"op{op['id']}{flag.replace('-', '_')}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            argv += [flag, path]
        op["argv"] = argv + op["args"]


def shape_key(op: dict):
    """(n, d, k) of an op that runs the assignment engine, else None."""
    if op["kind"] in ("moments", "greedy"):
        return op["a"]["n"], op["a"]["d"], op["k"]
    if op["kind"] == "align":
        return op["h1"]["n"], op["h1"]["d"], op["k"]
    if op["kind"] == "cli" and op["command"] in ("assign", "hyper-align"):
        doc = op["files"].get("--a") or op["files"]["--h1"]
        return doc["n"], doc["d"], op["k"]
    return None


def shape_repeat_share(ops: list[dict]) -> float:
    """Share of assignment-engine ops whose (n, d, k) occurred earlier in
    the list: the input property the type sweep's grouping cache exploits."""
    seen, engine_ops, repeats = set(), 0, 0
    for op in ops:
        key = shape_key(op)
        if key is None:
            continue
        engine_ops += 1
        repeats += key in seen
        seen.add(key)
    return repeats / engine_ops if engine_ops else 0.0


def check_passes(checker: check.Checker, ops: list[dict], passes: list[dict],
                 workload: str):
    """(attempted, failures, qualities) over every op of every pass."""
    attempted, failures, qualities = 0, [], []
    for index, result in enumerate(passes):
        for op in ops:
            attempted += 1
            if "crash" in result:
                failures.append((workload, index, op["label"], result["crash"]))
                continue
            ok, reason, quality = checker.check(op, result["ops"][op["id"]])
            if ok:
                qualities.append(quality)
            else:
                failures.append((workload, index, op["label"], reason))
    return attempted, failures, qualities


def mean_of(qualities: list[dict], key: str) -> float:
    """Mean over the ops that passed their checks; 0 when none did (the
    run then reports correct = false)."""
    values = [q[key] for q in qualities if key in q]
    return statistics.fmean(values) if values else 0.0


def measure_setups(runner: Runner, ops: list[dict]) -> list[float]:
    """Set-up times of SETUP_SAMPLES set-up-only workers, after one more
    whose time is dropped: it warms the file cache, as for a user who
    runs orbitmax again."""
    setups = []
    for _ in range(SETUP_SAMPLES + 1):
        result = runner.run_pass(ops, setup_only=True)
        if "crash" in result:
            raise RuntimeError(result["crash"])
        setups.append(result["setup_s"])
    return setups[1:]


def end_to_end(ops: list[dict], passes: list[dict], setups: list[float],
               attempted: int, failed: int, qualities: list[dict],
               report: list[str]) -> dict[str, float]:
    good = [p for p in passes if "crash" not in p]
    if not good:
        raise RuntimeError("every pass crashed; nothing was measured")
    per_op = [statistics.median(p["ops"][op["id"]]["latency_s"] for p in good)
              for op in ops]
    q, tail, beyond = tail_percentile(per_op)
    report.append(f"latency_tail_s is p{q} of {len(per_op)} per-op latencies "
                  f"(each the median of {len(good)} passes; {beyond} samples beyond)")
    report.append(f"setup_s is the median of {len(setups)} set-ups")
    report.append(f"unscaled: wall_s median {statistics.median(p['raw_wall_s'] for p in good):.4f} s; "
                  f"calibration median {statistics.median(p['calib_s'] for p in good) * 1e3:.4f} ms "
                  f"(reference speed: {worker.CALIB_REF_S * 1e3:g} ms)")
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p["wall_s"] for p in good),
        "latency_p50_s": statistics.median(per_op),
        "latency_tail_s": tail,
        "ok_frac": 1.0 - failed / attempted,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in good),
        "interval_log_ratio": mean_of(qualities, "interval_log_ratio"),
        "greedy_log_gap": mean_of(qualities, "greedy_log_gap"),
    }


def per_layer(ops: list[dict], passes: list[tuple[bool, dict]]) -> dict[str, float]:
    plain = [p["wall_s"] for traced, p in passes if not traced and "crash" not in p]
    traced_passes = [p for traced, p in passes if traced and "crash" not in p]
    if not plain or not traced_passes:
        raise RuntimeError("need one untraced and one traced pass that completed")
    share = shape_repeat_share(ops)
    tables = [tracer.layer_metrics(p["trace"], p.get("cli"), share) for p in traced_passes]
    out = {name: statistics.median(t[name] for t in tables) for name in tables[0]}
    out["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced_passes)
                               - statistics.median(plain))
    return out


def defect_probe(runner: Runner, checker: check.Checker, seed: int,
                 report: list[str]) -> None:
    """Run the known-defect ops untimed and list how each fares."""
    probe = workloads.defect_probe(seed)
    result = runner.run_pass(probe)
    _, failures, _ = check_passes(checker, probe, [result], "defect-probe")
    failed_labels = {label for _, _, label, _ in failures}
    for op in probe:
        status = "FAILS" if op["label"] in failed_labels else "passes"
        report.append(f"known-defect probe (untimed, not in the op list): "
                      f"{op['label']} {status}")
    for _, _, label, reason in failures:
        report.append(f"  {label}: {reason[:160]}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "orbitmax", "__init__.py")):
        print("perfbench: src/orbitmax not found; run from the root of an orbitmax "
              "checkout", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    ops = workloads.generate(args.workload, args.seed)
    report = [f"workload={args.workload} seed={args.seed} ops={len(ops)} "
              f"seconds={args.seconds:g} trace={args.trace}"]
    scratch = os.path.join(root, ".perfbench_tmp")
    os.makedirs(scratch, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        materialise_cli_inputs(ops, tmp)
        runner = Runner(root, tmp)
        kinds = (False, True) if args.trace else (False,)
        setups = [] if args.trace else measure_setups(runner, ops)
        passes: list[tuple[bool, dict]] = []
        start = time.perf_counter()
        while True:
            traced = kinds[len(passes) % len(kinds)]
            passes.append((traced, runner.run_pass(ops, trace=traced)))
            elapsed = time.perf_counter() - start
            done = len(passes)
            if done >= len(kinds) and elapsed * (done + 1) / done > args.seconds:
                break
        report.append(f"passes={len(passes)} measured_s={elapsed:.2f}")

        checker = check.Checker()
        attempted, failures, qualities = check_passes(
            checker, ops, [p for _, p in passes], args.workload)
        if args.trace:
            metrics = per_layer(ops, passes)
            wanted = bench["per_layer"]
        else:
            metrics = end_to_end(ops, [p for _, p in passes], setups, attempted,
                                 len(failures), qualities, report)
            wanted = bench["end_to_end"]
            if args.workload == "assign-moments":
                defect_probe(runner, checker, args.seed, report)
    try:
        os.rmdir(scratch)
    except OSError:
        pass  # another run still uses it

    report.append(f"failed ops: {len(failures)} of {attempted}")
    for workload, index, label, reason in failures:
        report.append(f"  FAILED {workload} pass={index} {label}: {reason[:200]}")
    for m in wanted:
        report.append(f"{m['name']} = {metrics[m['name']]:.6g} {m['unit']}")
    print("\n".join(report))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
