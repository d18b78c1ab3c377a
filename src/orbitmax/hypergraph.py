"""Hypergraph alignment as a tensor assignment problem.

Two hypergraphs on the same vertex set are encoded as adjacency tensors
so that the assignment objective <B, gA> counts (or weight-scores) the
edges matched by the vertex bijection g.  Bounding and extracting the
best bijection then reuses the assignment machinery.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction
from typing import Mapping, NamedTuple, Sequence

from . import assign
from .bounds import Interval
from .exact import (_Frozen, format_rational, parse_int, parse_ints, parse_list,
                    parse_rationals)

__all__ = [
    "Hypergraph",
    "AlignResult",
    "adjacency_tensor",
    "matched_edges",
    "align",
    "hypergraph_to_json",
    "hypergraph_from_json",
]


class Hypergraph(_Frozen):
    """n vertices (0-based) and multiset edges of exactly d vertices each.

    Shorter edges must be padded to size d by repeating vertices, which
    changes their symmetrisation weight accordingly.  Edges are stored
    sorted; duplicates (as multisets) are rejected.  ``weights`` are
    optional per-edge prices, defaulting to 1.  The shape and every
    vertex are read with ``exact.parse_int``, and the weights with
    ``exact.parse_rationals``.  Hypergraphs are immutable, and equal
    when n, d, the sorted edges and the weights are.
    """

    __slots__ = ("n", "d", "edges", "weights")

    def __init__(self, n: int, d: int, edges: Sequence[Sequence[int]],
                 weights: Sequence[Fraction | int | str] = ()) -> None:
        n, d = parse_int(n), parse_int(d)
        if n < 1 or d < 1:
            raise ValueError("hypergraph needs n >= 1 and d >= 1")
        weights = parse_rationals(weights) or (Fraction(1),) * len(edges)
        if len(weights) != len(edges):
            raise ValueError("weights must parallel edges")
        canon = []
        for e in map(parse_ints, edges):
            if len(e) != d:
                raise ValueError(
                    f"edge {e} has {len(e)} vertices (with multiplicity), "
                    f"expected exactly {d}; pad shorter edges explicitly")
            if any(not 0 <= v < n for v in e):
                raise ValueError(f"edge {e} has a vertex outside 0..{n - 1}")
            canon.append(tuple(sorted(e)))
        if len(set(canon)) != len(canon):
            raise ValueError("duplicate edges are not allowed")
        self._set(n, d, tuple(canon), weights)

    @classmethod
    def from_edges(cls, n: int, d: int, edges: Sequence[Sequence[int]],
                   weights: Sequence[Fraction | int] | None = None) -> "Hypergraph":
        return cls(n, d, tuple(edges), () if weights is None else weights)

    @property
    def uniform(self) -> bool:
        """True when every edge has d distinct vertices."""
        return all(len(set(e)) == self.d for e in self.edges)


class AlignResult(NamedTuple):
    permutation: assign.Permutation
    matched: Fraction
    bounds: Interval


def adjacency_tensor(h: Hypergraph, role: str) -> assign.DenseTensor:
    """Order-d tensor with entries at every ordered arrangement of each edge.

    role "source": entry = edge weight (1 for unweighted).
    role "target": entry = weight * (k_1! ... k_r!) / d! where the k_i
    are the multiplicities inside the edge, so each matched edge pair
    contributes exactly weight_source * weight_target to <B, gA>.

    The tensor is built in its cleared integers: the per-edge values
    are cleared once and scattered to each edge's arrangements, so no
    dense ``Fraction`` tensor is made.
    """
    if role not in ("source", "target"):
        raise ValueError(f"role must be 'source' or 'target', got {role!r}")
    n, d = h.n, h.d
    groups = []
    for edge, w in zip(h.edges, h.weights):
        if role == "target":
            mult_prod = math.prod(map(math.factorial, Counter(edge).values()))
            w = Fraction(w.numerator * mult_prod, w.denominator * math.factorial(d))
        groups.append((w, {assign._flat_index(arrangement, n, d)
                           for arrangement in itertools.permutations(edge)}))
    return assign.DenseTensor._scattered(n, d, groups)


def matched_edges(h1: Hypergraph, h2: Hypergraph,
                  g: assign.Permutation) -> Fraction:
    """Weighted count of h1 edges that g maps onto edges of h2.

    Equals <B, gA> for the source tensor of h1 and target tensor of h2;
    an exact non-negative integer when both hypergraphs are unweighted.
    """
    if h1.n != h2.n or h1.d != h2.d:
        raise ValueError(
            f"hypergraph shapes differ: (n={h1.n}, d={h1.d}) vs (n={h2.n}, d={h2.d})")
    return assign.matrix_element(
        adjacency_tensor(h1, "source"), adjacency_tensor(h2, "target"), g)


def align(h1: Hypergraph, h2: Hypergraph, k: int,
          visit_budget: int | None = None) -> AlignResult:
    """Certified bounds on the best matched-edge count plus a greedy bijection.

    The returned permutation's exact matched count is at least the
    certified lower bound (2k-th root of the exact moment).
    """
    if h1.n != h2.n or h1.d != h2.d:
        raise ValueError(
            f"hypergraph shapes differ: (n={h1.n}, d={h1.d}) vs (n={h2.n}, d={h2.d})")
    a = adjacency_tensor(h1, "source")
    b = adjacency_tensor(h2, "target")
    bounds = assign.sup_bounds(a, b, k, visit_budget)
    greedy = assign.greedy_extract(a, b, k, visit_budget)
    return AlignResult(greedy.permutation, greedy.value, bounds)


def hypergraph_to_json(h: Hypergraph) -> dict:
    out = {
        "n": h.n,
        "d": h.d,
        "edges": [[v + 1 for v in e] for e in h.edges],
    }
    if any(w != 1 for w in h.weights):
        out["weights"] = [format_rational(w) for w in h.weights]
    return out


def hypergraph_from_json(obj: Mapping) -> Hypergraph:
    try:
        n = parse_int(obj["n"])
        d = parse_int(obj["d"])
        edges = [tuple(parse_int(v) - 1 for v in parse_list(e))
                 for e in parse_list(obj["edges"])]
        weights = parse_rationals(parse_list(obj.get("weights", [])))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed hypergraph object: {exc}") from exc
    return Hypergraph.from_edges(n, d, edges, weights or None)
