import itertools
import random
from fractions import Fraction

import pytest

from helpers import (combinatorial_matched, fraction_adjacency_tensor, identity,
                     random_hypergraph, random_permutation)
from orbitmax import assign, exact, hypergraph
from orbitmax.hypergraph import (Hypergraph, adjacency_tensor, align,
                                 matched_edges)


def triangle():
    return Hypergraph.from_edges(3, 2, [(0, 1), (1, 2), (0, 2)])


def path():
    return Hypergraph.from_edges(3, 2, [(0, 1), (1, 2)])


@pytest.mark.parametrize("budget", [2.5e8, True, "1.5", -1])
def test_align_refuses_a_budget_that_is_not_a_count(budget):
    with pytest.raises(ValueError):
        align(triangle(), path(), 1, visit_budget=budget)


class TestHypergraph:
    def test_duplicate_edges_rejected(self):
        with pytest.raises(ValueError):
            Hypergraph.from_edges(3, 2, [(0, 1), (1, 0)])

    def test_vertex_range_checked(self):
        with pytest.raises(ValueError):
            Hypergraph.from_edges(3, 2, [(0, 3)])

    def test_edge_size_must_equal_d(self):
        with pytest.raises(ValueError):
            Hypergraph.from_edges(4, 3, [(0, 1)])

    @pytest.mark.parametrize("n, d, edges, weights, match", [
        (0, 2, [], None, "n >= 1 and d >= 1"),
        (3, 0, [], None, "n >= 1 and d >= 1"),
        (3, 2, [(0, 1), (1, 2)], [1], "parallel"),
        (3, 2, [(0, 1)], [1, 2], "parallel"),
    ])
    def test_shape_and_weights_checked(self, n, d, edges, weights, match):
        with pytest.raises(ValueError, match=match):
            Hypergraph.from_edges(n, d, edges, weights)

    @pytest.mark.parametrize("edges", [["12"], [b"12"], "12"])
    def test_string_for_an_edge_refused(self, edges):
        # a ValueError, not a bare TypeError from comparing characters
        with pytest.raises(ValueError, match="sequence of integers"):
            Hypergraph.from_edges(3, 2, edges)

    @pytest.mark.parametrize("n, d", [("3", 2), (3, 2.0), (3, True)])
    def test_shape_read_as_json_reads_it(self, n, d):
        # the string "3" is read as 3 by both, a float or a bool by neither
        edges = [(0, 1)] if d == 2 else [(0,)]
        obj = {"n": n, "d": d, "edges": [[v + 1 for v in e] for e in edges]}
        if isinstance(n, str):
            h = Hypergraph.from_edges(n, d, edges)
            assert h == hypergraph.hypergraph_from_json(obj) and h.n == 3
        else:
            for make in (lambda: Hypergraph.from_edges(n, d, edges),
                         lambda: hypergraph.hypergraph_from_json(obj)):
                with pytest.raises(ValueError, match="integer"):
                    make()

    @pytest.mark.parametrize("edge", ["01", (0, 1.0), (0, True)])
    def test_constructor_reads_integer_vertices(self, edge):
        with pytest.raises(ValueError, match="integer"):
            Hypergraph(3, 2, (edge,))

    # weights are read as the JSON readers read them
    @pytest.mark.parametrize("weight, match", [
        (0.5, "float"), (True, "boolean"), ("half", "Invalid literal")])
    def test_weights_read_as_json_reads_them(self, weight, match):
        for make in (lambda: Hypergraph(3, 2, ((0, 1),), (weight,)),
                     lambda: Hypergraph.from_edges(3, 2, [(0, 1)], [weight])):
            with pytest.raises(ValueError, match=match):
                make()

    # a string of weights is refused, not read as its characters (it
    # used to give the weights (2,))
    @pytest.mark.parametrize("weights", ["2", b"2"], ids=["str", "bytes"])
    def test_weights_refuse_a_string(self, weights):
        for make in (lambda: Hypergraph(3, 2, ((0, 1),), weights),
                     lambda: Hypergraph.from_edges(3, 2, [(0, 1)], weights)):
            with pytest.raises(ValueError, match="sequence of rationals"):
                make()

    def test_weights_read_from_rational_strings(self):
        h = Hypergraph(3, 2, ((0, 1),), ("1/2",))
        assert h.weights == (Fraction(1, 2),) and type(h.weights[0]) is Fraction
        assert h == Hypergraph.from_edges(3, 2, [(0, 1)], ["1/2"])

    def test_uniformity_detection(self):
        assert triangle().uniform
        assert not Hypergraph.from_edges(3, 2, [(0, 0), (1, 2)]).uniform

    def test_json_round_trip(self):
        h = Hypergraph.from_edges(4, 2, [(0, 1), (2, 2)],
                                  weights=[Fraction(1), Fraction(3, 2)])
        assert hypergraph.hypergraph_from_json(hypergraph.hypergraph_to_json(h)) == h


class TestAdjacencyTensor:
    def test_triangle_source_has_six_ones(self):
        t = adjacency_tensor(triangle(), "source")
        assert sum(t.entries) == 6
        assert t.is_zero_one

    def test_triangle_target_halves(self):
        t = adjacency_tensor(triangle(), "target")
        nonzero = [v for v in t.entries if v]
        assert len(nonzero) == 6
        assert all(v == Fraction(1, 2) for v in nonzero)

    def test_loop_edge_multiplicity_weight(self):
        h = Hypergraph.from_edges(2, 2, [(0, 0)])
        t = adjacency_tensor(h, "target")
        assert t.get((0, 0)) == 1  # 2!/2! = 1
        assert sum(1 for v in t.entries if v) == 1

    def test_total_target_mass_is_edge_count(self):
        rng = random.Random(1)
        for _ in range(10):
            h = random_hypergraph(rng, rng.randint(2, 5), rng.randint(1, 3), 6)
            t = adjacency_tensor(h, "target")
            assert sum(t.entries, Fraction(0)) == len(h.edges)

    def test_bad_role(self):
        with pytest.raises(ValueError):
            adjacency_tensor(triangle(), "both")

    @pytest.mark.parametrize("padded", [False, True], ids=["uniform", "padded"])
    @pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
    def test_matches_fraction_build(self, padded, weighted):
        # the integers cleared from the edge values, against the dense
        # Fraction tensor of every arrangement
        rng = random.Random(f"{padded} {weighted}")
        for _ in range(12):
            n, d = rng.randint(1, 6), rng.randint(1, 3)
            pool = list((itertools.combinations_with_replacement if padded
                         else itertools.combinations)(range(n), d))
            edges = rng.sample(pool, rng.randint(0, min(len(pool), 8)))
            weights = [Fraction(rng.randint(-10 ** 6, 10 ** 6) or 1, rng.randint(1, 10 ** 12))
                       for _ in edges] if weighted else None
            h = Hypergraph.from_edges(n, d, edges, weights)
            for role in ("source", "target"):
                t = adjacency_tensor(h, role)
                assert t == fraction_adjacency_tensor(h, role)
                assert (list(t.ints), t.den) == exact._int_scaled(t.entries)
                assert t.nonzero == tuple(i for i, v in enumerate(t.entries) if v)
            g = random_permutation(rng, n)
            assert matched_edges(h, h, g) == combinatorial_matched(h, h, g)


class TestMatchedEdges:
    def test_self_identity_counts_all_edges(self):
        g = identity(3)
        assert matched_edges(triangle(), triangle(), g) == 3

    def test_triangle_path_identity(self):
        g = identity(3)
        assert matched_edges(path(), triangle(), g) == 2
        assert matched_edges(triangle(), path(), g) == 2

    def test_disjoint_images(self):
        h1 = Hypergraph.from_edges(4, 2, [(0, 1)])
        h2 = Hypergraph.from_edges(4, 2, [(2, 3)])
        assert matched_edges(h1, h2, identity(4)) == 0

    def test_integrality_and_range(self):
        rng = random.Random(2)
        for _ in range(30):
            n, d = rng.randint(2, 5), rng.randint(1, 3)
            h1 = random_hypergraph(rng, n, d, 8)
            h2 = random_hypergraph(rng, n, d, 8)
            g = random_permutation(rng, n)
            m = matched_edges(h1, h2, g)
            assert m.denominator == 1
            assert 0 <= m <= min(len(h1.edges), len(h2.edges))

    def test_matches_combinatorial_count(self):
        rng = random.Random(3)
        for _ in range(40):
            n, d = rng.randint(2, 6), rng.randint(1, 3)
            h1 = random_hypergraph(rng, n, d, 10)
            h2 = random_hypergraph(rng, n, d, 10)
            g = random_permutation(rng, n)
            assert matched_edges(h1, h2, g) == combinatorial_matched(h1, h2, g)

    def test_weighted_edges(self):
        h1 = Hypergraph.from_edges(3, 2, [(0, 1)], weights=[Fraction(3)])
        h2 = Hypergraph.from_edges(3, 2, [(0, 1)], weights=[Fraction(5, 2)])
        g = identity(3)
        assert matched_edges(h1, h2, g) == Fraction(15, 2)

    def test_shape_mismatch(self):
        h1 = Hypergraph.from_edges(3, 2, [(0, 1)])
        h2 = Hypergraph.from_edges(4, 2, [(0, 1)])
        with pytest.raises(ValueError):
            matched_edges(h1, h2, identity(3))


class TestAlign:
    def test_triangle_self_alignment(self):
        result = align(triangle(), triangle(), 1)
        assert result.matched == 3
        assert result.bounds.lower <= 3.0 <= result.bounds.upper

    def test_triangle_vs_path(self):
        # every bijection maps the two path edges onto triangle edges
        result = align(path(), triangle(), 1)
        assert result.matched == 2
        assert result.bounds.lower <= 2.0 <= result.bounds.upper

    def test_empty_target(self):
        h2 = Hypergraph.from_edges(3, 2, [])
        result = align(triangle(), h2, 1)
        assert result.matched == 0
        assert result.bounds.degenerate
        assert result.bounds.lower == result.bounds.upper == 0.0

    def test_greedy_at_least_lower_bound(self):
        rng = random.Random(4)
        for _ in range(10):
            n, d = rng.randint(2, 4), rng.randint(1, 2)
            h1 = random_hypergraph(rng, n, d, 6)
            h2 = random_hypergraph(rng, n, d, 6)
            k = rng.randint(1, 2)
            result = align(h1, h2, k)
            assert result.matched ** (2 * k) >= result.bounds.lower_exact

    def test_bounds_contain_brute_optimum(self):
        rng = random.Random(5)
        for _ in range(10):
            n, d = rng.randint(2, 4), rng.randint(1, 2)
            h1 = random_hypergraph(rng, n, d, 6)
            h2 = random_hypergraph(rng, n, d, 6)
            k = rng.randint(1, 2)
            a = adjacency_tensor(h1, "source")
            b = adjacency_tensor(h2, "target")
            best = assign.brute_max(a, b).abs_value
            result = align(h1, h2, k)
            assert result.bounds.lower_exact <= best ** (2 * k) <= \
                result.bounds.upper_exact

    def test_sparse_three_uniform_at_sixteen(self):
        # 24 edges make 144 nonzero entries a side: the greedy sweep visits
        # 144**2 = 20,736 rows, not 16**6 index sequences, and the
        # moment's contraction plan needs 131,059 units
        rng = random.Random(16)
        pool = list(itertools.combinations(range(16), 3))
        h1, h2 = (Hypergraph.from_edges(16, 3, rng.sample(pool, 24))
                  for _ in range(2))
        result = align(h1, h2, 1, visit_budget=10 ** 6)
        assert result.matched ** 2 >= result.bounds.lower_exact
        assert result.matched == matched_edges(h1, h2, result.permutation)

    def test_complete_graph_self_alignment(self):
        h = Hypergraph.from_edges(4, 2, [(i, j) for i in range(4)
                                         for j in range(i + 1, 4)])
        result = align(h, h, 2)
        assert result.matched == 6
