"""Golden outputs of the assignment engines on fixed small inputs.

``golden_assign.json`` holds the ``sup_bounds``, ``greedy_extract`` and
``hypergraph.align`` results of every input below, serialised exactly
(intervals by ``Interval.to_json``, values as 'num/den'), and the
``to_json`` of fixed ``verify_sandwich``, ``cor16_factor_check`` and
``system_reduce`` results, both verdicts of each.  The engines promise
bit-identical outputs across refactors of how they read their inputs
and write their records, so any difference here is a regression.  To regenerate the file
after a deliberate change of output, run

    PYTHONPATH=src python tests/test_golden.py --write
"""

from __future__ import annotations

import itertools
import json
import os
import random
import sys
from fractions import Fraction

import pytest

from orbitmax import assign, hypergraph, sandwich, sphere

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_assign.json")


def _tensor(seed: str, n: int, d: int, top: int, max_den: int = 1,
            zeros: float = 0.0) -> assign.DenseTensor:
    rng = random.Random(seed)
    return assign.DenseTensor.from_entries(n, d, [
        Fraction(0) if rng.random() < zeros
        else Fraction(rng.randint(-top, top), rng.randint(1, max_den))
        for _ in range(n ** d)])


# (name, n, d, k, top, max_den, zeros): entries up to top in magnitude,
# denominators up to max_den, a share ``zeros`` of them 0
TENSOR_CASES = (
    ("d1-small", 6, 1, 2, 9, 1, 0.0),
    ("d1-int64", 8, 1, 1, 10 ** 6, 1, 0.2),
    ("d1-wide", 7, 1, 3, 10 ** 15, 1, 0.0),
    ("d1-rational", 6, 1, 2, 10 ** 4, 10 ** 12, 0.3),
    ("d1-binary", 7, 1, 2, 1, 1, 0.0),
    ("d2-small", 4, 2, 1, 9, 1, 0.0),
    ("d2-int64", 5, 2, 2, 300, 1, 0.2),
    ("d2-wide", 5, 2, 1, 10 ** 13, 1, 0.0),
    ("d2-rational", 5, 2, 1, 50, 10 ** 6, 0.4),
    ("d2-sparse", 6, 2, 1, 9, 4, 0.8),
    ("d2-wide-rational", 4, 2, 2, 10 ** 9, 10 ** 12, 0.5),
    ("d2-sweep", 7, 2, 1, 5, 1, 0.6),
    ("d3-small", 3, 3, 1, 9, 1, 0.0),
    ("d3-int64", 4, 3, 1, 10 ** 4, 1, 0.3),
    ("d3-wide", 3, 3, 1, 10 ** 14, 1, 0.0),
    ("d3-rational", 4, 3, 1, 20, 10 ** 5, 0.5),
    ("d3-sparse", 5, 3, 1, 9, 1, 0.95),
    ("d3-wide-rational", 3, 3, 2, 10 ** 8, 10 ** 12, 0.3),
)


def _hypergraph(seed: str, n: int, d: int, count: int, padded: bool,
                weighted: bool) -> hypergraph.Hypergraph:
    rng = random.Random(seed)
    pool = list((itertools.combinations_with_replacement if padded
                 else itertools.combinations)(range(n), d))
    rng.shuffle(pool)
    edges = pool[:count]
    weights = [Fraction(rng.randint(1, 9), rng.randint(1, 5)) for _ in edges] \
        if weighted else None
    return hypergraph.Hypergraph.from_edges(n, d, edges, weights)


# (name, n, d, k, edges, padded, weighted)
ALIGN_CASES = (
    ("align-d2-weighted", 8, 2, 1, 10, False, True),
    ("align-d3-padded", 6, 3, 1, 9, True, False),
)


def _system(*polys) -> list[sphere.SparsePoly]:
    return [sphere.SparsePoly.from_terms(2, 1, terms) for terms in polys]


# (name, call): result records whose to_json is pinned, each verdict once
RECORD_CASES = (
    # the point mass, tight at n = 2, k = 1, and a rational pair
    ("sandwich-tight", lambda: sandwich.verify_sandwich([1, 0], [1, 0], 1)),
    ("sandwich-rational", lambda: sandwich.verify_sandwich(
        ["1/2", -3, 2, "5/7"], [2, "-1/3", 0, 1], 2)),
    # dim 1 is below k0, so its check is not applicable
    ("cor16-below-k0", lambda: sandwich.cor16_factor_check(1, 0.5)),
    ("cor16-applicable", lambda: sandwich.cor16_factor_check(40, 0.9)),
    # x1 = x2 = 0 has no root on the circle; x1 - x2 vanishes on the diagonal
    ("system-gap", lambda: sphere.system_reduce(
        _system([((1, 0), 1)], [((0, 1), 1)]), 6, 0.01)),
    ("system-solvable", lambda: sphere.system_reduce(
        _system([((1, 0), 1), ((0, 1), "-1/2")]), 3)),
)


def _fmt(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def tensor_pair(name: str) -> tuple[assign.DenseTensor, assign.DenseTensor, int]:
    _, n, d, k, top, max_den, zeros = next(c for c in TENSOR_CASES if c[0] == name)
    return (*(_tensor(f"{name}:{side}", n, d, top, max_den, zeros)
              for side in "ab"), k)


def hypergraph_pair(name: str):
    _, n, d, k, count, padded, weighted = next(c for c in ALIGN_CASES if c[0] == name)
    return (*(_hypergraph(f"{name}:{side}", n, d, count, padded, weighted)
              for side in "ab"), k)


def outputs(name: str) -> dict:
    """The serialised engine outputs of one named input."""
    record = dict(RECORD_CASES).get(name)
    if record is not None:
        return record().to_json()
    if name.startswith("align"):
        h1, h2, k = hypergraph_pair(name)
        res = hypergraph.align(h1, h2, k)
        return {"interval": res.bounds.to_json(), "images": list(res.permutation.images),
                "matched": _fmt(res.matched)}
    a, b, k = tensor_pair(name)
    greedy = assign.greedy_extract(a, b, k)
    return {"interval": assign.sup_bounds(a, b, k).to_json(),
            "images": list(greedy.permutation.images), "value": _fmt(greedy.value)}


NAMES = [c[0] for c in TENSOR_CASES + ALIGN_CASES + RECORD_CASES]


@pytest.fixture(scope="module")
def golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def test_golden_covers_every_input(golden):
    assert sorted(golden) == sorted(NAMES)


@pytest.mark.parametrize("name", NAMES)
def test_outputs_match_golden(golden, name):
    assert outputs(name) == golden[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump({name: outputs(name) for name in NAMES}, fh, indent=1, sort_keys=True)
        fh.write("\n")
