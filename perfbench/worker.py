"""One pass over a workload's op list, in a fresh process.

Usage: python perfbench/worker.py SPEC_JSON SPAWNED_AT

SPAWNED_AT is the parent's ``time.perf_counter()`` just before it started
this process (CLOCK_MONOTONIC, shared by all processes on Linux).  The
worker imports orbitmax and parses every input through the library's
``*_from_json`` functions; that set-up ends at the first timed op and is
reported from SPAWNED_AT.  The ops then run in order, one at a time,
each timed on its own.  Outputs are serialised after the timed loop and
printed as one JSON line.  With "trace" set in the spec, the calls into
each orbitmax layer are wrapped by ``tracer`` (CLI children run through
``cli_child.py``).

Op times are reported at a fixed reference speed of the host.  A shared
2-CPU virtual machine was measured changing speed by a third or more
within tens of seconds, in wall and CPU time alike, far beyond any bound
worth setting.  So a fixed calibration computation (``_calibrate``: integer,
dict, Fraction and numpy work, none of it from orbitmax) runs
before every op and after the last, and each op's latency is scaled by
``CALIB_REF_S`` over the median calibration time of the eight runs
around it.  A change to orbitmax moves the op times and leaves the
calibration alone; a change in host speed moves both.  The unscaled
times are reported beside the scaled ones.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))

# time of one _calibrate() at the reference speed (about the typical
# speed of the 2-CPU VM the bounds were set on); scaled latencies are
# latencies at that speed
CALIB_REF_S = 3.0e-3
# calibration runs on each side of an op whose median scales it
CALIB_WINDOW = 4


def _calibrate(np, array) -> float:
    """Time one fixed chunk of interpreter work of the kinds orbitmax does
    (big integers, dicts keyed by ints and tuples, a sort, Fractions, a
    numpy pass over 2 MB, a fresh 4 MB array), so that a host that slows
    caches and memory slows it as it slows the ops.  ``np`` is numpy and
    ``array`` is ``np.arange(2**18)``.  The collector is off, so objects
    the program left alive do not slow it."""
    gc.disable()
    start = time.perf_counter()
    by_int, x = {}, 1
    for i in range(1, 1250):
        x = (x * 3 + i) % (1 << 400)
        by_int[(i * 7919) % 1009] = x
    sorted(by_int.items(), key=lambda kv: kv[1] % 1009)
    total = Fraction(0)
    for i in range(1, 30):
        total += Fraction(i, i + 1)
    by_tuple: dict[tuple, int] = {}
    for i in range(1500):
        key = tuple(range(i % 7, i % 7 + 6))
        by_tuple[key] = by_tuple.get(key, 0) + 1
    int((array[::14] * 3).sum())
    np.ones(1 << 19)
    elapsed = time.perf_counter() - start
    gc.enable()
    return elapsed


def _scaled(latencies: list[float], calib: list[float]) -> list[float]:
    """Latencies at the reference speed.  calib[i] ran just before op i
    and calib[i + 1] just after it."""
    out = []
    for i, lat in enumerate(latencies):
        near = calib[max(0, i + 1 - CALIB_WINDOW): i + 1 + CALIB_WINDOW]
        out.append(lat * CALIB_REF_S / statistics.median(near))
    return out


def _fmt(x) -> str:
    return f"{x.numerator}/{x.denominator}"


def _parse_inputs(op: dict):
    from orbitmax import assign, hypergraph, sphere
    kind = op["kind"]
    if kind == "fewnomial":
        return sphere.poly_from_json(op["poly"])
    if kind == "system":
        return [sphere.poly_from_json(p) for p in op["system"]]
    if kind in ("moments", "greedy"):
        return assign.tensor_from_json(op["a"]), assign.tensor_from_json(op["b"])
    if kind == "align":
        return (hypergraph.hypergraph_from_json(op["h1"]),
                hypergraph.hypergraph_from_json(op["h2"]))
    parsers = {"--poly": sphere.poly_from_json, "--a": assign.tensor_from_json,
               "--b": assign.tensor_from_json, "--h1": hypergraph.hypergraph_from_json,
               "--h2": hypergraph.hypergraph_from_json,
               "--system": lambda objs: [sphere.poly_from_json(p) for p in objs]}
    return [parsers[flag](doc) for flag, doc in op["files"].items()]


def _run_op(op: dict, inputs, cli_prefix: list[str], trace_file: str | None):
    """Execute one op; returns the raw result (serialised later)."""
    from orbitmax import assign, hypergraph, sphere
    kind = op["kind"]
    if kind == "fewnomial":
        return (sphere.fewnomial_sup(inputs, op["eps"]),
                sphere.sample_lower_bound(inputs, op["trials"], op["sample_seed"]))
    if kind == "system":
        return sphere.system_reduce(inputs, op["k"], op["delta"])
    if kind == "moments":
        return assign.sup_bounds(*inputs, op["k"])
    if kind == "greedy":
        return (assign.sup_bounds(*inputs, op["k"]),
                assign.greedy_extract(*inputs, op["k"]))
    if kind == "align":
        return hypergraph.align(*inputs, op["k"])
    cmd = cli_prefix + ([trace_file] if trace_file else []) + op["argv"]
    return subprocess.run(cmd, capture_output=True, text=True, check=False)


def _serialise(op: dict, raw) -> dict:
    kind = op["kind"]
    if kind == "fewnomial":
        return {"interval": raw[0].to_json(), "witness": raw[1]}
    if kind == "system":
        return raw.to_json()
    if kind == "moments":
        return {"interval": raw.to_json()}
    if kind == "greedy":
        return {"interval": raw[0].to_json(), "images": list(raw[1].permutation.images),
                "value": _fmt(raw[1].value)}
    if kind == "align":
        return {"interval": raw.bounds.to_json(), "images": list(raw.permutation.images),
                "matched": _fmt(raw.matched)}
    try:
        doc = json.loads(raw.stdout) if raw.returncode == 0 else None
    except json.JSONDecodeError:
        doc = None
    return {"returncode": raw.returncode, "stdout": doc, "stderr": raw.stderr[-400:]}


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    spawned_at = float(sys.argv[2])
    import orbitmax  # noqa: F401  (the import is part of set-up)
    ops = spec["ops"]
    inputs = [_parse_inputs(op) for op in ops]
    setup_s = time.perf_counter() - spawned_at
    if spec.get("setup_only"):
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer_obj = None
    if spec["trace"]:
        sys.path.insert(0, HERE)
        import tracer
        tracer_obj = tracer.Tracer()
        tracer.install(tracer_obj)
    cli_prefix = ([sys.executable, os.path.join(HERE, "cli_child.py")] if spec["trace"]
                  else [sys.executable, "-m", "orbitmax.cli"])
    trace_files = [os.path.join(spec["tmp"], f"cli-trace-{op['id']}.json")
                   if spec["trace"] and op["kind"] == "cli" else None for op in ops]

    import numpy as np  # after set-up: orbitmax may not need it at import
    array = np.arange(1 << 18, dtype=np.int64)
    raws, errors, latencies = [], [], []
    calib = [_calibrate(np, array)]
    for op, inp, trace_file in zip(ops, inputs, trace_files):
        if tracer_obj is not None:
            tracer_obj.op = op["id"]
        start = time.perf_counter()
        try:
            raw, err = _run_op(op, inp, cli_prefix, trace_file), None
        except Exception as exc:  # an op that raises is a failed op, not a failed pass
            raw, err = None, f"{type(exc).__name__}: {exc}"
        latencies.append(time.perf_counter() - start)
        calib.append(_calibrate(np, array))
        raws.append(raw)
        errors.append(err)
    scaled = _scaled(latencies, calib)

    results = []
    for op, raw, err, lat in zip(ops, raws, errors, scaled):
        if err is None:
            try:
                out = _serialise(op, raw)
            except Exception as exc:  # a malformed output fails its op
                out, err = None, f"unserialisable output: {type(exc).__name__}: {exc}"
        else:
            out = None
        results.append({"id": op["id"], "latency_s": lat, "error": err, "out": out})

    who = resource.RUSAGE_CHILDREN if any(op["kind"] == "cli" for op in ops) \
        else resource.RUSAGE_SELF
    payload = {"setup_s": setup_s, "wall_s": sum(scaled), "raw_wall_s": sum(latencies),
               "calib_s": statistics.median(calib), "ops": results,
               "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0}
    if tracer_obj is not None:
        summaries = [tracer_obj.summary()]
        cli = {"start_s": 0.0, "import_s": 0.0, "main_s": 0.0}
        for path, lat in zip(trace_files, latencies):
            if path and os.path.exists(path):
                with open(path, encoding="utf-8") as fh:
                    child = json.load(fh)
                summaries.append(child["trace"])
                cli["import_s"] += child["import_s"]
                cli["main_s"] += child["main_s"]
                cli["start_s"] += (lat - child["import_s"] - child["main_s"]
                                   - child["tracer_s"])
        payload["trace"] = tracer.merge(summaries)
        payload["cli"] = cli
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
