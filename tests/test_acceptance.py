"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
and enforcing its stated wall-clock budget."""

import json
import math
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from helpers import (brute_group_moment, combinatorial_matched,
                     oracle_monomial_moment, random_hypergraph,
                     random_int_tensor, random_permutation)
from helpers import naive_pow
from orbitmax import assign, hypergraph, sandwich, sphere
from orbitmax.exact import bound_factor
from orbitmax.sphere import SparsePoly


@contextmanager
def criterion(num: int, description: str, limit_s: float):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {num}: FAIL - {description}")
        raise
    elapsed = time.perf_counter() - start
    ok = elapsed < limit_s
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {description} "
          f"({elapsed:.2f}s, limit {limit_s:.0f}s)")
    assert ok, f"criterion {num} exceeded its {limit_s}s budget: {elapsed:.2f}s"


def random_fewnomial(rng: random.Random, max_n=6, max_d=4, max_terms=4):
    n = rng.randint(1, max_n)
    d = rng.randint(1, max_d)
    items = []
    for _ in range(rng.randint(1, max_terms)):
        exps = [0] * n
        for _ in range(d):
            exps[rng.randrange(n)] += 1
        coef = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        items.append((tuple(exps), coef if coef else Fraction(1)))
    p = SparsePoly.from_terms(n, d, items)
    if p.is_zero:
        p = SparsePoly.from_terms(n, d, [((d,) + (0,) * (n - 1), 1)])
    return p


def test_criterion_1_sphere_moment_oracle():
    with criterion(1, "sphere moments agree with an independent integrator "
                      "on 200 random fewnomials", 10.0):
        rng = random.Random(1001)
        for _ in range(200):
            p = random_fewnomial(rng)
            k = rng.randint(1, 3)
            expansion_path = sphere.moment_2k(p, k)
            oracle = sum(
                (coef * oracle_monomial_moment(exps, p.n)
                 for exps, coef in naive_pow(p, 2 * k).items()),
                Fraction(0))
            assert expansion_path == oracle


def test_criterion_2_power_of_linear_diagnostic():
    with criterion(2, "power-of-linear ratio stays below 2^(d/2) for "
                      "n<=10, d<=4, k<=5, closed form == expansion", 5.0):
        for n in range(1, 11):
            for d in range(1, 5):
                p = SparsePoly.from_terms(n, d, [((d,) + (0,) * (n - 1), 1)])
                for k in range(1, 6):
                    moment = sphere.moment_2k(p, k)
                    closed = oracle_monomial_moment(
                        (2 * k * d,) + (0,) * (n - 1), n)
                    assert moment == closed
                    # sup = 1, so the ratio bound reads, at the 2k power:
                    #   C(kd+n-1, kd) * moment <= 2^(kd)
                    factor = math.comb(k * d + n - 1, k * d)
                    assert factor * moment <= 2 ** (k * d)


def test_criterion_3_fewnomial_guarantee():
    with criterion(3, "fewnomial intervals meet ratio 1+eps and dominate "
                      "sampled values, eps in {0.5, 0.25, 0.1}", 60.0):
        rng = random.Random(1003)
        count = 0
        while count < 50:
            p = random_fewnomial(rng)
            # keep the eps = 0.1 expansion within the term budget
            k_max = sphere.choose_k(p.n, p.d, 0.1)
            t = p.num_terms
            if math.comb(2 * k_max + t - 1, t - 1) > 200_000:
                continue
            count += 1
            sampled = sphere.sample_lower_bound(p, 10 ** 4, seed=count)
            for eps in (0.5, 0.25, 0.1):
                interval = sphere.fewnomial_sup(p, eps)
                if interval.degenerate:
                    continue
                assert interval.ratio <= 1 + eps
                assert sampled <= interval.upper


def _criterion_4_5_instances():
    rng = random.Random(1004)
    instances = []
    big = 0
    while len(instances) < 100:
        n = rng.randint(2, 6)
        d = rng.randint(1, 2)
        k = rng.randint(1, 2)
        visits = n ** (2 * k * d)
        if visits > 1_700_000:
            continue
        if visits > 400_000:
            if big >= 6:
                continue
            big += 1
        a = random_int_tensor(rng, n, d, -9, 9)
        b = random_int_tensor(rng, n, d, -9, 9)
        instances.append((n, d, k, a, b))
    return instances


@pytest.fixture(scope="module")
def assignment_instances():
    return _criterion_4_5_instances()


def test_criterion_4_assignment_moment_oracle(assignment_instances):
    with criterion(4, "assignment moments equal full S_n enumeration on "
                      "100 random integer tensor pairs", 30.0):
        for n, d, k, a, b in assignment_instances:
            assert assign.moment_2k(a, b, k) == brute_group_moment(a, b, k)


def test_criterion_5_greedy_guarantee(assignment_instances):
    with criterion(5, "greedy value sits between the moment and the brute "
                      "maximum on the same 100 instances", 120.0):
        violations = 0
        for n, d, k, a, b in assignment_instances:
            result = assign.greedy_extract(a, b, k)
            moment = assign.moment_2k(a, b, k)
            best = assign.brute_max(a, b).abs_value
            if not (result.value ** (2 * k) >= moment
                    and abs(result.value) <= best):
                violations += 1
        assert violations == 0


def test_criterion_6_sandwich_certification():
    with criterion(6, "sandwich inequalities hold exactly on 100 random "
                      "(v, ell) cases, tight for the point mass", 20.0):
        # exact tightness of the point-mass case: sup^2 == 2 * moment_2
        report = sandwich.verify_sandwich(
            [Fraction(1), Fraction(0)], [Fraction(1), Fraction(0)], 1)
        assert report.sup_abs == 1
        assert report.span_dim == 2
        upper = next(c for c in report.checks
                     if c.inequality.startswith("sup_abs^2k"))
        assert upper.holds and upper.tight
        rng = random.Random(1006)
        for _ in range(100):
            n = rng.randint(2, 5)
            k = rng.randint(1, 3)
            v = [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                 for _ in range(n)]
            ell = [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                   for _ in range(n)]
            if all(x == 0 for x in v):
                v[0] = Fraction(1)
            assert sandwich.verify_sandwich(v, ell, k).all_hold


def test_criterion_7_hypergraph_pipeline():
    with criterion(7, "tensor matched-edge counts equal combinatorial "
                      "counts; triangle-vs-path alignment is exact", 20.0):
        rng = random.Random(1007)
        for _ in range(100):
            n = rng.randint(2, 7)
            d = rng.randint(1, 3)
            h1 = random_hypergraph(rng, n, d, 10)
            h2 = random_hypergraph(rng, n, d, 10)
            g = random_permutation(rng, n)
            assert hypergraph.matched_edges(h1, h2, g) == \
                combinatorial_matched(h1, h2, g)
        tri = hypergraph.Hypergraph.from_edges(3, 2, [(0, 1), (1, 2), (0, 2)])
        pth = hypergraph.Hypergraph.from_edges(3, 2, [(0, 1), (1, 2)])
        result = hypergraph.align(pth, tri, 1)
        a = hypergraph.adjacency_tensor(pth, "source")
        b = hypergraph.adjacency_tensor(tri, "target")
        optimum = assign.brute_max(a, b).abs_value
        assert optimum == 2
        assert result.matched == 2
        assert result.bounds.lower_exact <= optimum ** 2 <= \
            result.bounds.upper_exact


def test_criterion_8_bound_factor_decay():
    with criterion(8, "k0(eps) makes the bound factor at most eps*sqrt(dim) "
                      "for dim in {k0, 2k0, 10k0}, eps in {1, 0.5, 0.25}", 5.0):
        for eps in (1.0, 0.5, 0.25):
            report = sandwich.cor16_factor_check(1, eps)
            k0 = report.k0
            for dim in (k0, 2 * k0, 10 * k0):
                assert bound_factor(dim, k0) <= eps * math.sqrt(dim)
            assert report.all_hold


def test_criterion_9_cli_determinism(tmp_path):
    with criterion(9, "CLI output is byte-identical across repeated runs", 60.0):
        poly = tmp_path / "p.json"
        poly.write_text(json.dumps(
            {"n": 3, "d": 2, "terms": [
                {"exps": [2, 0, 0], "coef": "3/2"},
                {"exps": [1, 1, 0], "coef": "-1/3"}]}))
        tensor = tmp_path / "t.json"
        tensor.write_text(json.dumps(
            {"n": 3, "d": 2, "entries": [
                {"index": [1, 2], "value": "2/1"},
                {"index": [2, 3], "value": "-1/2"},
                {"index": [3, 3], "value": "1/1"}]}))
        commands = [
            [sys.executable, "-m", "orbitmax.cli", "poly-bounds",
             "--poly", str(poly), "--eps", "0.5"],
            [sys.executable, "-m", "orbitmax.cli", "assign",
             "--a", str(tensor), "--b", str(tensor), "--k", "2",
             "--greedy", "--brute"],
            [sys.executable, "-m", "orbitmax.cli", "verify",
             "--n", "4", "--k", "2", "--trials", "15", "--seed", "9"],
        ]
        for cmd in commands:
            outputs = set()
            for _ in range(3):
                proc = subprocess.run(cmd, capture_output=True, check=True)
                outputs.add(proc.stdout)
            assert len(outputs) == 1
