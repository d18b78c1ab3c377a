"""Self-test of the benchmark's checker and references.

Run from the root of a checkout:  python3 -m pytest -q perfbench/test_checker.py

Genuine library outputs must pass; each corrupted copy (moment + 1, a
swapped greedy image, a flipped verdict, ...) must be counted as a failed
op.  The references are cross-checked against each other and, where the
repository's test helpers are present, against their naive oracles.
"""

from __future__ import annotations

import copy
import itertools
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import check  # noqa: E402
import reference as ref  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def _genuine(op: dict) -> dict:
    out = worker._serialise(op, worker._run_op(op, worker._parse_inputs(op), [], None))
    return {"id": op["id"], "latency_s": 0.0, "error": None, "out": out}


def _first(workload: str, kind: str, pick=lambda op: True) -> dict:
    return next(op for op in workloads.generate(workload, 7)
                if op["kind"] == kind and pick(op))


def _bump(doc: dict, field: str) -> None:
    x = Fraction(doc[field]) + 1
    doc[field] = f"{x.numerator}/{x.denominator}"


def _corruptions():
    """(name, op, mutate) triples; mutate edits a deep copy of a result."""
    few = _first("sphere-bounds", "fewnomial", lambda op: op["eps"] == 0.5)
    system = _first("sphere-bounds", "system", lambda op: op["k"] == 2)
    moments = _first("assign-moments", "moments", lambda op: op["a"]["d"] == 1)
    small = _first("assign-moments", "moments", lambda op: op["a"]["d"] == 3)
    greedy = _first("assign-greedy", "greedy")
    align = _first("assign-greedy", "align")

    def swap_images(r):
        images = r["out"]["images"]
        images[0], images[1] = images[1], images[0]

    def flip_verdict(r):
        r["out"]["verdict"] = ("certified gap" if r["out"]["verdict"] != "certified gap"
                               else "possibly solvable")

    return [
        ("moment+1", moments, lambda r: _bump(r["out"]["interval"], "lower_exact")),
        ("upper+1", moments, lambda r: _bump(r["out"]["interval"], "upper_exact")),
        ("wrong k", moments, lambda r: r["out"]["interval"].update(k=moments["k"] + 1)),
        ("sandwich moment+1", small, lambda r: _bump(r["out"]["interval"], "lower_exact")),
        ("sphere moment+1", few, lambda r: _bump(r["out"]["interval"], "lower_exact")),
        ("witness above upper", few,
         lambda r: r["out"].update(witness=2 * r["out"]["interval"]["upper"] + 1)),
        ("greedy swapped image", greedy, swap_images),
        ("greedy value+1", greedy, lambda r: _bump(r["out"], "value")),
        ("greedy moment+1", greedy, lambda r: _bump(r["out"]["interval"], "lower_exact")),
        ("wrong verdict", system, flip_verdict),
        ("system gamma too small", system,
         lambda r: r["out"].update(gamma_exact="1/1000000")),
        ("align swapped image", align, swap_images),
        ("align matched+1", align, lambda r: _bump(r["out"], "matched")),
        ("raised", moments, lambda r: r.update(error="BudgetError: over budget", out=None)),
        ("malformed", moments, lambda r: r["out"].pop("interval")),
    ]


CASES = _corruptions()


@pytest.mark.parametrize("name,op,mutate", CASES, ids=[c[0] for c in CASES])
def test_corrupted_result_is_a_failed_op(name, op, mutate):
    genuine = _genuine(op)
    checker = check.Checker()
    ok, reason, _ = checker.check(op, genuine)
    assert ok, f"genuine output rejected: {reason}"
    bad = copy.deepcopy(genuine)
    mutate(bad)
    ok, reason, _ = checker.check(op, bad)
    assert not ok, f"corruption {name!r} was not detected"
    assert reason


def test_cli_failures_are_failed_ops():
    op = next(op for op in workloads.generate("cli-batch", 7) if op["command"] == "verify")
    checker = check.Checker()
    for out in ({"returncode": 2, "stdout": None, "stderr": "invalid input"},
                {"returncode": 0, "stdout": None, "stderr": ""}):
        ok, _, _ = checker.check(op, {"error": None, "out": out})
        assert not ok


def test_sphere_reference_matches_naive_oracle():
    tests_dir = os.path.join(ROOT, "tests")
    if not os.path.isfile(os.path.join(tests_dir, "helpers.py")):
        pytest.skip("tests/helpers.py not present")
    sys.path.insert(0, tests_dir)
    import helpers
    rng = random.Random(11)
    for _ in range(60):
        n, d, k = rng.randint(1, 4), rng.randint(1, 3), rng.randint(1, 2)
        p = helpers.random_poly(rng, n, d, 3)
        assert ref.sphere_moment(n, dict(p.terms), k) == helpers.oracle_sphere_moment_2k(p, k)


def test_assignment_references_agree():
    rng = random.Random(12)

    def vec(size):
        return [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(size)]

    for n in range(1, 7):
        a, b = vec(n), vec(n)
        for k in (1, 2, 3):
            enumerated = ref.moment_enumerated(a, b, n, 1, k)[0]
            assert ref.moment_d1(a, b, k) == enumerated
            assert ref.moment_d1_power_sums(a, b, k) == enumerated
    for n, d in ((3, 2), (4, 2), (3, 3), (5, 2)):
        a, b = vec(n ** d), vec(n ** d)
        assert ref.moment_patterns(a, b, n, d, 1) == ref.moment_enumerated(a, b, n, d, 1)[0]


def test_align_reference_matches_enumeration():
    rng = random.Random(13)
    for n, d in ((5, 2), (6, 2), (5, 3)):
        doc1 = workloads._hypergraph(rng, n, d)
        doc2 = workloads._hypergraph(rng, n, d)
        _, _, e1 = ref.hypergraph_edges(doc1)
        _, _, e2 = ref.hypergraph_edges(doc2)
        # f(g) = matched edges, so E[f**2] is the enumerated mean of matched**2
        total = sum(ref.matched_edges(e1, e2, g) ** 2
                    for g in itertools.permutations(range(n)))
        assert ref.align_moment(n, d, e1, e2) == Fraction(total, math.factorial(n))


def test_tracer_sees_greedy_coset_enumeration():
    """Greedy's own coset enumeration is a span of its own, taken out of
    greedy's self time (run in a child process: install rebinds globals)."""
    code = (
        "import json, tracer, workloads, worker\n"
        "op = next(o for o in workloads.generate('assign-greedy', 7)"
        " if o['kind'] == 'greedy')\n"
        "rec = tracer.Tracer(); tracer.install(rec)\n"
        "worker._run_op(op, worker._parse_inputs(op), [], None)\n"
        "print(json.dumps(rec.summary()))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([HERE, os.path.join(ROOT, "src")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert summary["calls"]["assign.greedy"] == 1
    assert summary["calls"].get("assign.coset", 0) >= 1
    assert summary["self_s"]["assign.greedy"] < summary["total_s"]["assign.greedy"]


def test_latencies_scale_by_the_calibrations_around_each_op():
    ref_s, window = worker.CALIB_REF_S, worker.CALIB_WINDOW
    # a steady host: every op is scaled by the same factor
    assert worker._scaled([0.5, 1.0], [2 * ref_s] * 3) == pytest.approx([0.25, 0.5])
    # a host twice as slow for the last ops: only ops near them are scaled down
    n = 4 * window
    calib = [ref_s] * (n // 2) + [2 * ref_s] * (n // 2 + 1)
    scaled = worker._scaled([1.0] * n, calib)
    assert scaled[0] == pytest.approx(1.0)
    assert scaled[-1] == pytest.approx(0.5)
    assert all(a >= b for a, b in zip(scaled, scaled[1:]))
