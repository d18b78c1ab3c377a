import itertools
import math
import os
import random
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (apply_perm, brute_coset_average, brute_group_moment,
                     brute_moebius_row, brute_orbit_form,
                     brute_partition_orbits, compose, enumerated_coset_moment,
                     fraction_matrix_element, identity, inverse,
                     loop_brute_max, loop_coset_power_sums,
                     mask_build_chunk, node_loop_side, nonzero_digit_entries,
                     nonzero_side, pinned_coset_moment, random_int_tensor,
                     random_permutation, random_rational_tensor,
                     sweep_coset_moment)
from orbitmax import (_builder, _contract, _residue, _typesweep, assign, exact,
                      hypergraph)
from orbitmax.assign import (DenseTensor, PartialAssignment, Permutation,
                             brute_max, coset_moment, greedy_extract,
                             matrix_element, moment_2k, sup_bounds)
from orbitmax.errors import BudgetError


class TestTypes:
    def test_tensor_entry_count_checked(self):
        with pytest.raises(ValueError):
            DenseTensor(2, 2, (Fraction(1),) * 3)

    @pytest.mark.parametrize("make, match", [
        (lambda: DenseTensor(0, 2, ()), "n >= 1 and d >= 1"),
        (lambda: DenseTensor(2, 0, (Fraction(1),)), "n >= 1 and d >= 1"),
        (lambda: DenseTensor.from_sparse(2, 2, {(0,): 1}), "index of length 1"),
        (lambda: DenseTensor.from_sparse(2, 2, {(0, 2): 1}), "out of range"),
        (lambda: DenseTensor.from_sparse(2, 2, {(-1, 0): 1}), "out of range"),
    ])
    def test_tensor_shape_and_index_checked(self, make, match):
        with pytest.raises(ValueError, match=match):
            make()

    @pytest.mark.parametrize("index", ["12", b"12"])
    def test_string_for_a_tensor_index_refused(self, index):
        # a ValueError, not a bare TypeError from comparing characters
        with pytest.raises(ValueError, match="sequence of integers"):
            DenseTensor.from_sparse(2, 2, {index: 1})

    # indices and shapes are read as the JSON readers read them: a string
    # where a sequence belongs, a float or a bool is a ValueError, not a
    # bare TypeError later or a float accepted as an index
    @pytest.mark.parametrize("index", ["12", (0, 1.0), (0, True)])
    def test_tensor_get_reads_integer_indices(self, index):
        with pytest.raises(ValueError, match="integer"):
            DenseTensor.zeros(2, 2).get(index)

    @pytest.mark.parametrize("images", ["012", (0.0, 1.0, 2.0), (True, False)])
    def test_permutation_reads_integer_images(self, images):
        with pytest.raises(ValueError, match="integer"):
            Permutation(images)

    @pytest.mark.parametrize("pairs", [("01",), ((0, 1.0),), ((0, True),)])
    def test_partial_assignment_reads_integer_pairs(self, pairs):
        with pytest.raises(ValueError, match="integer"):
            PartialAssignment(pairs)

    def test_integer_types_normalised_to_int(self):
        g = Permutation((np.int64(1), np.int8(0)))
        prefix = PartialAssignment(((np.int64(0), 1),))
        assert g.images == (1, 0) and prefix.pairs == ((0, 1),)
        assert all(type(i) is int for i in g.images + prefix.pairs[0])
        t = DenseTensor.from_entries(2, 2, [1, 2, 3, 4])
        assert t.get((np.int64(1), 0)) == 3

    @pytest.mark.parametrize("n, d", [("2", 1), (2.0, 1), (2, True)])
    def test_tensor_shape_read_as_json_reads_it(self, n, d):
        # the string "2" is read as 2 by both, a float or a bool by neither
        entries = (Fraction(1), Fraction(2))
        obj = {"n": n, "d": d, "entries": [{"index": [1], "value": "1"},
                                           {"index": [2], "value": "2"}]}
        if isinstance(n, str):
            t = DenseTensor(n, d, entries)
            assert t == assign.tensor_from_json(obj) and t.n == 2
        else:
            for make in (lambda: DenseTensor(n, d, entries),
                         lambda: assign.tensor_from_json(obj)):
                with pytest.raises(ValueError, match="integer"):
                    make()

    @pytest.mark.parametrize("make", [
        lambda: DenseTensor.zeros(2, 2.0), lambda: DenseTensor.zeros(2, -1),
        lambda: DenseTensor.from_sparse(2, 1.5, {})],
        ids=["float d", "negative d", "float d, sparse"])
    def test_shape_read_before_its_size(self, make):
        # a ValueError, not a bare TypeError from n ** d
        with pytest.raises(ValueError, match="integer|n >= 1 and d >= 1"):
            make()

    def test_string_shape_read_before_its_size(self):
        t = DenseTensor.from_sparse("2", 1, {(1,): 3})
        assert t.n == 2 and t.entries == (0, 3)

    # values are read as the JSON readers read them: a float, a bool or a
    # non-numeric string is a ValueError, not a bare AttributeError in
    # moment_2k or a float's binary expansion stored as exact
    @pytest.mark.parametrize("value, match", [
        (0.5, "float"), (0.1, "float"), (True, "boolean"), ("half", "Invalid literal")])
    def test_tensor_values_read_as_json_reads_them(self, value, match):
        for make in (lambda: DenseTensor(2, 1, (value, 2)),
                     lambda: DenseTensor.from_entries(2, 1, [value, 2]),
                     lambda: DenseTensor.from_sparse(2, 1, {(0,): value})):
            with pytest.raises(ValueError, match=match):
                make()

    # a string where the sequence of values belongs is refused, not read
    # as its characters (it used to give the entries (1, 2))
    @pytest.mark.parametrize("values", ["12", b"12"], ids=["str", "bytes"])
    def test_tensor_refuses_a_string_of_values(self, values):
        for make in (lambda: DenseTensor(2, 1, values),
                     lambda: DenseTensor.from_entries(2, 1, values)):
            with pytest.raises(ValueError, match="sequence of rationals"):
                make()

    def test_tensor_reads_values_from_any_iterable(self):
        t = DenseTensor.from_entries(2, 1, (v for v in ("1/2", 2)))
        assert t.entries == (Fraction(1, 2), 2)

    def test_tensor_reads_rational_strings(self):
        t = DenseTensor(2, 1, ("1/2", 2))
        assert t.entries == (Fraction(1, 2), 2)
        assert all(type(v) is Fraction for v in t.entries)
        assert t == DenseTensor.from_entries(2, 1, ["1/2", 2]) == \
            DenseTensor.from_sparse(2, 1, {(0,): "1/2", (1,): 2})
        assert moment_2k(t, t, 1) == brute_group_moment(t, t, 1)

    def test_permutation_bijectivity_checked(self):
        with pytest.raises(ValueError):
            Permutation((0, 0, 2))

    def test_partial_assignment_injectivity(self):
        with pytest.raises(ValueError):
            PartialAssignment(((0, 1), (0, 2)))
        with pytest.raises(ValueError):
            PartialAssignment(((0, 1), (2, 1)))

    def test_permutation_inverse_and_compose(self):
        g = Permutation((2, 0, 1))
        assert compose(g, inverse(g)).images == (0, 1, 2)

    def test_tensor_json_round_trip(self):
        rng = random.Random(0)
        t = random_rational_tensor(rng, 3, 2)
        assert assign.tensor_from_json(assign.tensor_to_json(t)) == t

    def test_permutation_json_round_trip(self):
        g = Permutation((2, 0, 1))
        assert assign.permutation_from_json(assign.permutation_to_json(g)) == g

    @pytest.mark.parametrize("images", [[1.5, 2.2], [2, True], [2.0, 1], "21"])
    def test_permutation_json_non_integral_images_rejected(self, images):
        # [1.5, 2.2] used to load as the identity, and "21" as (2, 1)
        with pytest.raises(ValueError, match="malformed permutation"):
            assign.permutation_from_json({"images": images})

    def test_tensor_json_duplicate_index_rejected(self):
        obj = {"n": 2, "d": 1,
               "entries": [{"index": [1], "value": "1/1"},
                           {"index": [1], "value": "2/1"}]}
        with pytest.raises(ValueError):
            assign.tensor_from_json(obj)


class TestApplyPerm:
    def test_identity(self):
        rng = random.Random(1)
        x = random_rational_tensor(rng, 3, 2)
        assert apply_perm(identity(3), x) == x

    def test_swap_vector(self):
        x = DenseTensor.from_entries(2, 1, [1, 0])
        g = Permutation((1, 0))
        assert apply_perm(g, x).entries == (Fraction(0), Fraction(1))

    def test_composition_action(self):
        rng = random.Random(2)
        for _ in range(20):
            n, d = rng.randint(2, 4), rng.randint(1, 2)
            x = random_int_tensor(rng, n, d, -3, 3)
            g = random_permutation(rng, n)
            h = random_permutation(rng, n)
            assert apply_perm(compose(g, h), x) == \
                apply_perm(g, apply_perm(h, x))

    def test_defining_property(self):
        rng = random.Random(3)
        n, d = 3, 2
        x = random_int_tensor(rng, n, d, -3, 3)
        g = random_permutation(rng, n)
        gx = apply_perm(g, x)
        for idx in itertools.product(range(n), repeat=d):
            assert gx.get(g.apply_index(idx)) == x.get(idx)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            apply_perm(identity(2), DenseTensor.zeros(3, 1))


class TestMatrixElement:
    def test_identity_gives_inner_product(self):
        rng = random.Random(4)
        a = random_rational_tensor(rng, 3, 2)
        b = random_rational_tensor(rng, 3, 2)
        expect = sum((x * y for x, y in zip(a.entries, b.entries)), Fraction(0))
        assert matrix_element(a, b, identity(3)) == expect

    def test_two_point_example(self):
        a = DenseTensor.from_entries(2, 1, [1, 0])
        assert matrix_element(a, a, Permutation((0, 1))) == 1
        assert matrix_element(a, a, Permutation((1, 0))) == 0

    def test_zero_tensor(self):
        a = DenseTensor.zeros(3, 2)
        b = random_rational_tensor(random.Random(5), 3, 2)
        for images in itertools.permutations(range(3)):
            assert matrix_element(a, b, Permutation(images)) == 0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            matrix_element(DenseTensor.zeros(2, 1), DenseTensor.zeros(2, 2),
                           identity(2))

    def test_permutation_size_mismatch(self):
        a = DenseTensor.zeros(2, 2)
        with pytest.raises(ValueError, match="permutation on 3 points"):
            matrix_element(a, a, identity(3))


def _cleared_case(rng, n, d, top, max_den, zeros):
    """Random entries up to ``top`` in magnitude, of either sign, with
    denominators up to ``max_den`` and a share ``zeros`` of them 0."""
    return [Fraction(0) if rng.random() < zeros
            else Fraction(rng.randint(-top, top), rng.randint(1, max_den))
            for _ in range(n ** d)]


class TestClearedIntegers:
    """A tensor's integers, denominator and nonzero positions against the
    entries they are cleared from, and the engines against the
    ``Fraction`` definitions in ``tests/helpers``."""

    CASES = [(n, d, top, max_den, zeros)
             for n, d in ((1, 1), (5, 1), (9, 1), (3, 2), (5, 2), (3, 3), (4, 3))
             for top, max_den, zeros in ((9, 1, 0.0), (10 ** 15, 1, 0.3),
                                         (50, 10 ** 12, 0.5), (10 ** 6, 10 ** 12, 0.0),
                                         (3, 4, 1.0))]

    @staticmethod
    def _constructions(n, d, flat):
        """The tensor of ``flat`` from every constructor and reader."""
        sparse = {idx: v for idx, v in zip(itertools.product(range(n), repeat=d), flat)
                  if v}
        doc = {"n": n, "d": d, "entries": [
            {"index": [i + 1 for i in idx], "value": f"{v.numerator}/{v.denominator}"}
            for idx, v in sparse.items()]}
        yield DenseTensor(n, d, flat)
        yield DenseTensor.from_entries(n, d, (str(v) for v in flat))
        yield DenseTensor.from_sparse(n, d, sparse)
        yield assign.tensor_from_json(doc)
        if not sparse:
            yield DenseTensor.zeros(n, d)

    @pytest.mark.parametrize("case", CASES, ids=lambda c: "n{}-d{}-top{}-den{}-zeros{}".format(*c))
    def test_constructors_clear_to_int_scaled(self, case):
        n, d, *rest = case
        rng = random.Random(str(case))
        flat = _cleared_case(rng, n, d, *rest)
        ints, den = exact._int_scaled(flat)
        for t in self._constructions(n, d, flat):
            assert (list(t.ints), t.den) == (ints, den) == exact._int_scaled(t.entries)
            assert type(t.ints) is tuple and den >= 1
            assert t.nonzero == tuple(i for i, v in enumerate(flat) if v)
            assert t.entries == tuple(flat)
            assert all(type(v) is Fraction and math.gcd(v.numerator, v.denominator) == 1
                       for v in t.entries)
            assert t == DenseTensor(n, d, flat) and hash(t) == hash(DenseTensor(n, d, flat))
            assert assign.tensor_from_json(assign.tensor_to_json(t)) == t
            assert t.is_zero_one == all(v in (0, 1) for v in flat)

    @pytest.mark.parametrize("case", CASES, ids=lambda c: "n{}-d{}-top{}-den{}-zeros{}".format(*c))
    def test_matrix_element_matches_fraction_sum(self, case):
        n, d, *rest = case
        rng = random.Random(f"matrix {case}")
        a, b = (DenseTensor(n, d, _cleared_case(rng, n, d, *rest)) for _ in range(2))
        for _ in range(4):
            g = random_permutation(rng, n)
            assert matrix_element(a, b, g) == fraction_matrix_element(a, b, g)

    def test_tensor_is_immutable(self):
        t = DenseTensor(2, 1, (1, 2))
        for name in ("n", "ints", "den", "nonzero", "entries"):
            with pytest.raises(AttributeError):
                setattr(t, name, None)
        assert t != DenseTensor(2, 1, (1, 3)) and t != DenseTensor(1, 2, (1,)) != t.entries
        assert repr(t) == "DenseTensor(n=2, d=1, entries=(Fraction(1, 1), Fraction(2, 1)))"

    def test_engines_neither_clear_nor_rescan(self, monkeypatch):
        # tensors read once; the engines then work in their integers and
        # nonzero positions: no clearing, no tensor built, no Fraction view
        rng = random.Random(1228)
        pairs = []
        for n, d, k, top, max_den in ((6, 1, 2, 9, 1), (5, 1, 1, 10 ** 15, 10 ** 12),
                                      (5, 2, 1, 9, 4), (6, 2, 2, 10 ** 13, 1),
                                      (4, 3, 1, 50, 10 ** 12)):
            a, b = (assign.tensor_from_json(assign.tensor_to_json(DenseTensor(
                n, d, _cleared_case(rng, n, d, top, max_den, 0.3)))) for _ in range(2))
            pairs.append((a, b, k))
        hypergraphs = [hypergraph.hypergraph_from_json(hypergraph.hypergraph_to_json(
            hypergraph.Hypergraph.from_edges(n, d, edges, weights)))
            for n, d, edges, weights in (
                (6, 2, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (1, 4)], None),
                (5, 3, [(0, 1, 2), (0, 0, 3), (1, 3, 4), (2, 2, 2)], [1, "1/2", 3, "2/7"]))]
        calls = {"clear": 0, "build": 0, "view": 0}

        def counted(name, fn):
            def call(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return call

        for mod in (exact, assign, hypergraph, _contract, _residue, _typesweep):
            if hasattr(mod, "_int_scaled"):
                monkeypatch.setattr(mod, "_int_scaled", counted("clear", exact._int_scaled))
        monkeypatch.setattr(DenseTensor, "_clear", counted("build", DenseTensor._clear))
        monkeypatch.setattr(DenseTensor, "entries", property(
            counted("view", DenseTensor.entries.fget)))
        for a, b, k in pairs:
            prefix = PartialAssignment(((0, 1), (2, 0)))
            moment_2k(a, b, k)
            sup_bounds(a, b, k)
            coset_moment(a, b, k, prefix)
            greedy_extract(a, b, k)
            brute_max(a, b)
        assert calls == {"clear": 0, "build": 0, "view": 0}
        for h in hypergraphs:
            hypergraph.align(h, h, 1)
        # align builds its two adjacency tensors, and nothing else
        assert calls == {"clear": 0, "build": 2 * len(hypergraphs), "view": 0}


class TestMoment2k:
    def test_two_point_example(self):
        a = DenseTensor.from_entries(2, 1, [1, 0])
        assert moment_2k(a, a, 1) == Fraction(1, 2)

    def test_zero_tensor(self):
        a = DenseTensor.zeros(2, 2)
        b = random_rational_tensor(random.Random(6), 2, 2)
        assert moment_2k(a, b, 1) == 0

    def test_constant_function(self):
        a = DenseTensor.from_entries(3, 1, [1, 1, 1])
        assert moment_2k(a, a, 1) == 9

    def test_matches_brute_force_integers(self):
        rng = random.Random(7)
        for _ in range(40):
            n, d, k = rng.randint(2, 4), rng.randint(1, 2), rng.randint(1, 2)
            a = random_int_tensor(rng, n, d, -4, 4)
            b = random_int_tensor(rng, n, d, -4, 4)
            assert moment_2k(a, b, k) == brute_group_moment(a, b, k)

    def test_matches_brute_force_rationals(self):
        rng = random.Random(8)
        for _ in range(15):
            n, d, k = rng.randint(2, 4), rng.randint(1, 2), 1
            a = random_rational_tensor(rng, n, d)
            b = random_rational_tensor(rng, n, d)
            assert moment_2k(a, b, k) == brute_group_moment(a, b, k)

    def test_huge_entries_exact(self):
        # forces the arbitrary-precision engine tier
        rng = random.Random(9)
        big = 10 ** 12
        a = DenseTensor.from_entries(
            3, 1, [rng.randint(-big, big) for _ in range(3)])
        b = DenseTensor.from_entries(
            3, 1, [rng.randint(-big, big) for _ in range(3)])
        assert moment_2k(a, b, 2) == brute_group_moment(a, b, 2)

    def test_bi_invariance_under_relabelling(self):
        rng = random.Random(10)
        for _ in range(15):
            n, d = rng.randint(2, 4), rng.randint(1, 2)
            a = random_int_tensor(rng, n, d, -3, 3)
            b = random_int_tensor(rng, n, d, -3, 3)
            g = random_permutation(rng, n)
            h = random_permutation(rng, n)
            assert moment_2k(apply_perm(g, a),
                             apply_perm(h, b), 1) == moment_2k(a, b, 1)

    def test_budget_error(self):
        # refused on the plan alone: each set partition of the 8 index
        # positions with at most 6 blocks, listed and canonicalised under
        # at most the 4! factor orders, plus its Bell(r) coarsenings and
        # its contraction ordering
        a = DenseTensor.zeros(6, 2)
        with pytest.raises(BudgetError) as exc:
            moment_2k(a, a, 2, visit_budget=1000)
        assert exc.value.required == _plan_terms(2, 4, 6) == 283083

    def test_k_validation(self):
        a = DenseTensor.zeros(2, 1)
        with pytest.raises(ValueError):
            moment_2k(a, a, 0)


def _set_partition_blocks(l):
    """Block count of every set partition of l positions, by listing
    their restricted-growth strings one at a time."""
    def grow(prefix, top):
        if len(prefix) == l:
            yield top
            return
        for lab in range(top + 1):
            yield from grow(prefix + [lab], max(top, lab + 1))

    return list(grow([0], 1))


def _stirling2(l, r):
    """Set partitions of l positions into r blocks, by inclusion-exclusion
    over the surjections onto r labelled blocks."""
    return sum((-1) ** j * math.comb(r, j) * (r - j) ** l
               for j in range(r + 1)) // math.factorial(r)


def _plan_terms(d, m, top):
    """Block counts r = 1..R are found from the comb(r**d + m - 1, m)
    multisets of m segment words, r! renamings each, and the others from
    their S(l, r) set partitions, m! segment orders each, plus one term
    per partition with at most r blocks listed.  R ends the run of r from
    1 where the words cost no more, and is 0 when the partitions of that
    run number at most 2**16.  Every item also costs its Bell(r)
    coarsenings and comb(m + 1, 3) steps of contraction ordering."""
    l = m * d
    words = 0
    while words < l and math.comb((words + 1) ** d + m - 1, m) \
            * math.factorial(words + 1) \
            <= _stirling2(l, words + 1) * math.factorial(m):
        words += 1
    if sum(_stirling2(l, r) for r in range(1, words + 1)) <= 2 ** 16:
        words = 0
    total = listed = 0
    for r in range(1, top + 1):
        bell = sum(_stirling2(r, j) for j in range(1, r + 1))
        if r <= words:
            items, tries = math.comb(r ** d + m - 1, m), math.factorial(r)
        else:
            items, tries = _stirling2(l, r), math.factorial(m)
            listed = sum(_stirling2(l, j) for j in range(1, r + 1))
        total += items * (tries + bell + math.comb(m + 1, 3))
    return total + listed


def _with_zero_lines(rng, n, d):
    """An integer tensor with its first row (index 0 in the first slot)
    and its last slice (index n - 1 in the last slot) zero."""
    flat = [rng.randint(-3, 3) for _ in range(n ** d)]
    for pos in range(n ** d):
        if pos // n ** (d - 1) == 0 or pos % n == n - 1:
            flat[pos] = 0
    return DenseTensor.from_entries(n, d, flat)


class TestPartitionMoments:
    """At d >= 2 the moment over S_n is a Moebius inversion over the set
    partitions of the 2kd index positions, one contraction per connected
    component, with no sweep and no enumeration."""

    def test_matches_brute_force(self):
        rng = random.Random(1010)
        for n in range(1, 7):
            for d in (2, 3):
                for k in (1, 2):
                    if d == 3 and k == 2 and n > 3:
                        continue  # covered by test_refused_beyond_the_budget
                    pairs = [(random_int_tensor(rng, n, d, -4, 4),
                              random_int_tensor(rng, n, d, -4, 4)),
                             (_with_zero_lines(rng, n, d),
                              _with_zero_lines(rng, n, d)),
                             (DenseTensor.zeros(n, d),
                              random_int_tensor(rng, n, d, -4, 4))]
                    for a, b in pairs:
                        assert moment_2k(a, b, k) == brute_group_moment(a, b, k)

    def test_many_factors_at_small_n(self):
        # 2k = 6 or 8 factors over at most 4 blocks: the orbits come from
        # multisets of factor words under block renamings, not from the
        # (2k)! factor orders, so these stay within the default budget as
        # the sweep's n**(2kd) visits did
        rng = random.Random(1016)
        for n, d, k in ((2, 2, 3), (3, 2, 3), (2, 3, 3), (2, 2, 4), (4, 2, 3)):
            a = random_int_tensor(rng, n, d, -4, 4)
            b = random_int_tensor(rng, n, d, -4, 4)
            assert moment_2k(a, b, k) == brute_group_moment(a, b, k)

    def test_rationals_match_brute_force(self):
        rng = random.Random(1011)
        for n, d, k in ((3, 2, 2), (4, 2, 1), (3, 3, 1)):
            a = random_rational_tensor(rng, n, d)
            b = random_rational_tensor(rng, n, d)
            assert moment_2k(a, b, k) == brute_group_moment(a, b, k)

    def test_refused_beyond_the_budget(self):
        # 4 factors of order 3 at n = 5 need more plan terms than the
        # default budget, as the sweep's 5**12 visits did
        a = DenseTensor.zeros(5, 3)
        with pytest.raises(BudgetError) as exc:
            moment_2k(a, a, 2)
        assert exc.value.required == _plan_terms(3, 4, 5)
        assert exc.value.required > exc.value.budget == assign.DEFAULT_VISIT_BUDGET

    def test_keys_beyond_int64_are_refused(self):
        # 16 index positions with up to 16 blocks: 16**16 keys leave
        # int64, refused before any plan is built, whatever the budget
        a = DenseTensor.zeros(16, 2)
        with pytest.raises(BudgetError) as exc:
            moment_2k(a, a, 4, visit_budget=10 ** 30)
        assert exc.value.required == 16 ** 16
        assert exc.value.budget == 2 ** 63 - 1

    def test_object_tier_on_disconnected_components(self):
        # entries of 10**12 and above force Python-int contractions; most
        # partitions split the factors into components whose values are
        # multiplied, the contraction that optimised object einsum wraps
        assert np.einsum("ab,cd->", *[np.array([[10 ** 12, 3], [5, 7]],
                                               dtype=object)] * 2) == \
            (10 ** 12 + 15) ** 2
        rng = random.Random(1012)
        big = 10 ** 12
        for n, d, k in ((2, 2, 2), (4, 2, 2), (3, 3, 1), (5, 2, 1)):
            a = random_int_tensor(rng, n, d, big, 2 * big)
            b = random_int_tensor(rng, n, d, -2 * big, -big)
            ints = [int(v) for v in a.entries]
            assert n ** min(n, 2 * k * d) * max(ints) ** (2 * k) > 2 ** 63 - 1
            assert moment_2k(a, b, k) == brute_group_moment(a, b, k)

    @pytest.mark.parametrize("n, d, k, wraps", [pytest.param(
        *shape, wraps, id="-".join(map(str, shape))) for shape, wraps in (
            ((4, 2, 1), False), ((4, 2, 2), False), ((5, 2, 2), True),
            ((3, 3, 1), False), ((6, 2, 1), False), ((6, 2, 2), True))])
    @pytest.mark.parametrize("above", [False, True], ids=["below", "above"])
    def test_int64_boundary(self, monkeypatch, n, d, k, wraps, above):
        # a side runs in int64, its contractions and its Moebius sums,
        # while n**F * top**(2k) <= 2**63 - 1, F = min(n, 2kd) the most
        # blocks, and on Python ints above that.  The first draw of A is
        # constant, so its T(sigma) is n**r * top**(2k) for sigma of r
        # blocks; where ``wraps``, a Moebius row's running sum of that side
        # leaves int64, and the wrapped sums must still read out exact
        m, blocks = 2 * k, min(n, 2 * k * d)
        top = _iroot((2 ** 63 - 1) // n ** blocks, m) + above
        assert (n ** blocks * top ** m > 2 ** 63 - 1) == above
        rng = random.Random(1013 + above)
        draws = []
        for i in range(3):
            a = [top] * n ** d if i == 0 else \
                [top] + [rng.choice((top, -top, 0, 1)) for _ in range(n ** d - 1)]
            b = [-top] + [rng.choice((top, -top, 2)) for _ in range(n ** d - 1)]
            draws.append((DenseTensor.from_entries(n, d, a),
                          DenseTensor.from_entries(n, d, b)))
        plan = _contract._plan(d, m)
        plan.limit(blocks)
        if not above:
            count = plan.start[blocks + 1]
            row_sums = _moebius_row_sums(plan, count)
            hom = [n ** r * top ** m for r in (np.searchsorted(
                plan.start, np.arange(count), side="right") - 1).tolist()]
            assert max(row_sums) * max(hom) > 2 ** 63 - 1
            running = max(abs(part) for i in range(count) for part in
                          itertools.accumulate(
                              int(plan.coefs[j]) * hom[plan.cols[j]]
                              for j in range(plan.row_start[i], plan.row_start[i + 1])))
            assert (running > 2 ** 63 - 1) == wraps
        seen, summed = _record_dtypes(monkeypatch)
        for a, b in draws:
            assert moment_2k(a, b, k) == brute_group_moment(a, b, k)
        dtype = np.dtype(object if above else np.int64)
        assert set(seen) == {dtype} and summed == [dtype] * (2 * len(draws))

    def test_moebius_sums_leave_int64_contractions(self, monkeypatch):
        # a side whose contractions fit int64 (n**F * top**(2k) <= 2**63 - 1)
        # while a Moebius row's sum of |coefficients| times the largest T
        # does not: its Moebius sums stay in int64 with its contractions,
        # exact whatever their products wrap to
        n, d, k = 4, 2, 1
        m, blocks = 2 * k, min(n, 2 * k * d)
        top = math.isqrt((2 ** 63 - 1) // n ** blocks)
        rng = random.Random(1)
        a, b = (DenseTensor.from_entries(
            n, d, [rng.choice((top, -top, 0, 1)) for _ in range(n * n)])
            for _ in range(2))
        plan = _contract._plan(d, m)
        plan.limit(blocks)
        row_abs = max(_moebius_row_sums(plan, plan.start[blocks + 1]))
        for t in (a, b):
            flat = [int(v) for v in t.entries]
            hom = [_brute_hom(flat, n, d, rgs)
                   for rgs in plan.reps[:plan.start[blocks + 1]].tolist()]
            assert n ** blocks * top ** m <= 2 ** 63 - 1 < row_abs * max(map(abs, hom))
        seen, summed = _record_dtypes(monkeypatch)
        assert moment_2k(a, b, k) == brute_group_moment(a, b, k)
        assert set(seen) == {np.dtype(np.int64)}
        assert summed == [np.dtype(np.int64)] * 2

    def test_components_compiled_once_per_process(self, monkeypatch):
        # a block limit compiles only the components that no smaller
        # limit of the same plan compiled before it; (2, 4) is built, not
        # read from the shipped plans
        monkeypatch.setattr(_contract, "_SHIPPED", frozenset())
        monkeypatch.setattr(_contract, "_plans", {})
        calls = []
        compile_ = _builder._compile

        def spy(*args):
            calls.append(args[0])
            return compile_(*args)

        monkeypatch.setattr(_builder, "_compile", spy)
        plan = _contract._plan(2, 4)
        plan.limit(4)
        assert len(calls) == 174
        plan.limit(5)
        assert len(calls) == 174 + 35

    def test_shared_compilation_is_order_independent(self, monkeypatch):
        # moments, contraction widths and the budget's required count do
        # not depend on which block limits were asked for before; every
        # plan asked for is a shipped one, so all are built instead
        monkeypatch.setattr(_contract, "_SHIPPED", frozenset())
        requests = [(2, 2, 2), (2, 2, 3), (2, 2, 4), (2, 4, 3), (2, 4, 4),
                    (2, 4, 5), (3, 2, 4), (3, 2, 5), (3, 2, 6)]
        rng = random.Random(1019)
        tensors = {req: (random_int_tensor(rng, req[2], req[0], -4, 4),
                         random_int_tensor(rng, req[2], req[0], -4, 4))
                   for req in requests}
        shuffled = requests[:]
        rng.shuffle(shuffled)
        seen = []
        for order in (requests, requests[::-1], shuffled):
            monkeypatch.setattr(_contract, "_plans", {})
            out = {}
            for d, m, top in order:
                a, b = tensors[(d, m, top)]
                plan = _contract._plan(d, m)
                widths = sorted(plan.limit(top).widths)
                terms = _plan_terms(d, m, top)
                with pytest.raises(BudgetError) as exc:
                    moment_2k(a, b, m // 2, visit_budget=terms)
                out[(d, m, top)] = (widths, exc.value.required,
                                    moment_2k(a, b, m // 2))
            seen.append(out)
        assert seen[0] == seen[1] == seen[2]

    @pytest.mark.parametrize("n", [30, 100])
    def test_closed_forms_at_large_n(self, n):
        rng = random.Random(1014 + n)
        flat_b = [rng.randint(-5, 5) for _ in range(n * n)]
        b = DenseTensor.from_entries(n, 2, flat_b)
        # an all-ones A makes f(g) = sum(B) for every g
        ones = DenseTensor.from_entries(n, 2, [1] * (n * n))
        assert moment_2k(ones, b, 2) == sum(flat_b) ** 4
        # a single entry a at (0, 1) makes f(g) = a * b[g(0), g(1)], and
        # (g(0), g(1)) is uniform over the ordered pairs of distinct points
        single = DenseTensor.from_sparse(n, 2, {(0, 1): Fraction(-7, 3)})
        off = [flat_b[i * n + j] ** 4 for i in range(n) for j in range(n)
               if i != j]
        assert moment_2k(single, b, 2) == \
            Fraction(-7, 3) ** 4 * Fraction(sum(off), n * (n - 1))

    def test_orbits_cover_every_partition(self):
        for d, m in ((2, 1), (2, 2), (3, 2), (2, 4), (2, 3), (3, 3), (4, 2),
                     (2, 5), (5, 2)):
            l = m * d
            plan = _contract._plan(d, m)
            _builder.extend(plan, l)
            blocks = _set_partition_blocks(l)
            for r in range(1, l + 1):
                sizes = plan.size[plan.start[r]:plan.start[r + 1]]
                assert sum(sizes) == blocks.count(r) == _stirling2(l, r)
        assert _contract._plan(2, 4).start[-1] == 296
        # plans over many segments, up to a few blocks
        for d, m, top in ((2, 6, 4), (3, 4, 3), (2, 12, 2)):
            plan = _contract._plan(d, m)
            _builder.extend(plan, top)
            for r in range(1, top + 1):
                sizes = plan.size[plan.start[r]:plan.start[r + 1]]
                assert sum(sizes) == _stirling2(m * d, r)

    def test_budget_boundary(self):
        a = DenseTensor.from_entries(5, 2, range(25))
        terms = _plan_terms(2, 4, 5)
        with pytest.raises(BudgetError) as exc:
            moment_2k(a, a, 2, visit_budget=terms - 1)
        assert exc.value.required == terms
        # past the plan, the contractions' multiply-adds for both sides
        with pytest.raises(BudgetError) as exc:
            moment_2k(a, a, 2, visit_budget=terms)
        required = exc.value.required
        assert required > terms and (required - terms) % 2 == 0
        moment_2k(a, a, 2, visit_budget=required)
        sup_bounds(a, a, 2, visit_budget=required)
        coset_moment(a, a, 2, PartialAssignment.empty(), visit_budget=required)
        with pytest.raises(BudgetError) as exc:
            moment_2k(a, a, 2, visit_budget=required - 1)
        assert (exc.value.required, exc.value.budget, exc.value.k) == \
            (required, required - 1, 2)

    def test_twelve_factors_at_one_and_two_points(self):
        # 2k = 12 factors of order 2: at n = 2 the 2**23 partitions into
        # two blocks fall into a few hundred orbits, found from multisets
        # of factor words, so no table of the 12! factor orders or of the
        # partitions is built
        rng = random.Random(1017)
        for n in (1, 2):
            a = random_int_tensor(rng, n, 2, -3, 3)
            b = random_int_tensor(rng, n, 2, -3, 3)
            moment = moment_2k(a, b, 6)
            assert moment == brute_group_moment(a, b, 6)
            assert coset_moment(a, b, 6, PartialAssignment.empty()) == moment
        a = DenseTensor.from_entries(1, 2, [-3])
        b = DenseTensor.from_entries(1, 2, [5])
        assert moment_2k(a, b, 6) == 15 ** 12 == \
            sweep_coset_moment(a, b, 6, PartialAssignment.empty())
        assert _contract._plan(2, 12).start[3] < 300

    def test_never_sweeps_or_enumerates(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("an unpinned moment must not sweep or enumerate")

        rng = random.Random(1015)
        cases = [(random_int_tensor(rng, n, d, -3, 3),
                  random_int_tensor(rng, n, d, -3, 3), k)
                 for n, d, k in ((5, 2, 2), (4, 3, 1))]
        # the sweep with no pins is the oracle
        expected = [(sweep_coset_moment(a, b, k, PartialAssignment.empty()),
                     sup_bounds(a, b, k)) for a, b, k in cases]
        monkeypatch.setattr(_typesweep, "sweep_rows", refuse)
        monkeypatch.setattr(_typesweep.PinnedScorer, "scores", refuse)
        monkeypatch.setattr(assign, "_enumerate_coset_power_sums", refuse)
        for (a, b, k), (moment, bounds) in zip(cases, expected):
            assert moment_2k(a, b, k) == moment
            assert sup_bounds(a, b, k) == bounds
            assert coset_moment(a, b, k, PartialAssignment.empty()) == moment
        with pytest.raises(AssertionError):
            sweep_coset_moment(a, b, k, PartialAssignment.empty())


# every plan shape (d, m) with d >= 2 and at most 8 positions
_SMALL_PLANS = [(d, l // d) for l in range(2, 9) for d in range(2, l + 1)
                if l % d == 0]


def _iroot(x, m):
    """The largest integer whose m-th power is at most x >= 0."""
    r = math.isqrt(x) if m == 2 else round(x ** (1 / m))
    while r ** m > x:
        r -= 1
    while (r + 1) ** m <= x:
        r += 1
    return r


def _moebius_row_sums(plan, count):
    """The sum of |coefficients| of each of the plan's first ``count``
    Moebius rows."""
    ends = plan.row_start
    return [int(np.abs(plan.coefs[ends[i]:ends[i + 1]]).sum()) for i in range(count)]


def _record_dtypes(monkeypatch):
    """Lists that record, from now on, the dtypes of the operands of every
    contraction of ``_contract`` and of every Moebius sum.  Build the plans
    a call reads before: the numpy that ``_contract`` now sees has no
    other method of ``np.add``."""
    seen, summed = [], []

    class Numpy:
        def __getattr__(self, name):
            return getattr(np, name)

        def einsum(self, sub, *operands, **kwargs):
            seen.extend(x.dtype for x in operands)
            return np.einsum(sub, *operands, **kwargs)

        class add:
            @staticmethod
            def reduceat(values, starts):
                summed.append(values.dtype)
                return np.add.reduceat(values, starts)

    monkeypatch.setattr(_contract, "np", Numpy())
    return seen, summed


def _brute_hom(flat, n, d, rgs):
    """T(sigma) of a flat tensor: the sum over the index sequences constant
    on the blocks of the restricted-growth string ``rgs`` of the product of
    the tensor's entries at its segments of d positions."""
    total = 0
    for value in itertools.product(range(n), repeat=max(rgs) + 1):
        term = 1
        for s in range(0, len(rgs), d):
            index = 0
            for lab in rgs[s:s + d]:
                index = index * n + value[lab]
            term *= flat[index]
        total += term
    return total


def _check_plan(plan, top, orbit_of, members, rows):
    """The plan's representatives with at most ``top`` blocks are one per
    orbit, numbered by block count, then by key, with the orbit sizes
    and the Moebius rows of the brute-force oracle."""
    cols, coefs = plan.cols, plan.coefs
    orbits = [orbit_of[tuple(rep)] for rep in plan.reps.tolist()]
    assert sorted(orbits[:plan.start[top + 1]]) == sorted(
        o for o, mem in enumerate(members) if max(min(mem)) < top)
    for r in range(1, top + 1):
        lo, hi = plan.start[r], plan.start[r + 1]
        assert all(max(plan.reps[i]) == r - 1 for i in range(lo, hi))
        assert np.all(np.diff(plan.keys[lo:hi]) > 0)
    for i in range(plan.start[top + 1]):
        orbit = orbits[i]
        assert plan.size[i] == len(members[orbit])
        if orbit not in rows:
            rows[orbit] = brute_moebius_row(min(members[orbit]), orbit_of)
        a, b = plan.row_start[i], plan.row_start[i + 1]
        assert dict(zip((orbits[c] for c in cols[a:b].tolist()),
                        coefs[a:b].tolist())) == rows[orbit]


class TestPartitionOrbits:
    """The plan's orbits, orbit sizes, Moebius rows and canonical keys
    against brute force over every segment order."""

    @pytest.mark.parametrize("d, m", _SMALL_PLANS)
    def test_plans_match_brute_force(self, monkeypatch, d, m):
        # the builder, block limit by block limit, not the shipped plans
        monkeypatch.setattr(_contract, "_SHIPPED", frozenset())
        orbit_of, members = brute_partition_orbits(d, m)
        rows: dict = {}
        l = m * d
        for top in range(1, l + 1):
            monkeypatch.setattr(_contract, "_plans", {})
            plan = _contract._plan(d, m)
            _builder.extend_rows(plan, top)
            _check_plan(plan, top, orbit_of, members, rows)
        # one plan extended block count by block count
        monkeypatch.setattr(_contract, "_plans", {})
        plan = _contract._plan(d, m)
        for top in range(1, l + 1):
            _builder.extend_rows(plan, top)
        _check_plan(plan, l, orbit_of, members, rows)

    @pytest.mark.parametrize("d, m", _SMALL_PLANS)
    def test_canonical_key_tells_orbits_apart(self, d, m):
        # every member of every orbit, and each under a random renaming
        # of its blocks
        rng = random.Random(1021 + 10 * d + m)
        orbit_of, members = brute_partition_orbits(d, m)
        rgs = sorted(orbit_of)
        renamed = []
        for row in rgs:
            names = rng.sample(range(max(row) + 1), max(row) + 1)
            renamed.append([names[x] for x in row])
        plan = _contract._plan(d, m)
        keys = _builder._canonical(plan, np.array(rgs, dtype=np.int8))[0].tolist()
        assert _builder._canonical(plan, np.array(renamed, dtype=np.int8))[0].tolist() == keys
        key_of = {}
        for row, key in zip(rgs, keys):
            assert key_of.setdefault(orbit_of[row], key) == key
        assert len(set(key_of.values())) == len(members)

    def test_find_takes_labels_above_the_plan_base(self):
        # a component of (2, 4) at top 8 can carry label 7, above the base
        # 4 of (2, 2); read in base 4, [1, 2, 2, 2] and [0, 5, 5, 6] are
        # both 106, so find must tell rows apart in their own base
        plan = _contract._plan(2, 2)
        _builder.extend(plan, 4)
        found = _builder.find(
            plan, np.array([[1, 2, 2, 2], [0, 5, 5, 6]], dtype=np.int8))
        renamed = _builder.find(
            plan, np.array([[0, 1, 1, 1], [0, 1, 1, 2]], dtype=np.int8))
        assert found.tolist() == renamed.tolist()
        assert renamed[0] != renamed[1]

    @pytest.mark.parametrize("d, m, samples", [(2, 6, 40), (3, 4, 40), (2, 8, 10)])
    def test_canonical_key_on_random_partitions(self, d, m, samples):
        # few blocks, so that some samples share an orbit
        rng = random.Random(1022 + m)
        plan = _contract._plan(d, m)
        rgs = []
        for _ in range(samples):
            blocks = rng.randint(1, 4)
            names: dict = {}
            rgs.append([names.setdefault(rng.randrange(blocks), len(names))
                        for _ in range(m * d)])
        keys = _builder._canonical(plan, np.array(rgs, dtype=np.int8))[0].tolist()
        moved = []
        for row in rgs:
            for _ in range(5):
                order = rng.sample(range(m), m)
                names = rng.sample(range(max(row) + 1), max(row) + 1)
                moved.append([names[row[s * d + t]] for s in order
                              for t in range(d)])
        assert _builder._canonical(plan, np.array(moved, dtype=np.int8))[0].tolist() == \
            [key for key in keys for _ in range(5)]
        forms = [brute_orbit_form(row, d, m) for row in rgs]
        for i, j in itertools.combinations(range(samples), 2):
            assert (keys[i] == keys[j]) == (forms[i] == forms[j])


class TestGroupedSide:
    """``_Plan.side``, one einsum per group of like nodes, against one
    einsum per node (``tests/helpers.node_loop_side``), bit for bit."""

    @pytest.mark.parametrize("d, m, tops", [
        *((d, m, m * d) for d, m in sorted(_contract._SHIPPED)), (2, 6, 6), (4, 2, 5)])
    def test_matches_the_node_loop(self, monkeypatch, d, m, tops):
        # shipped plans as read, the others built; every block limit, an
        # all-zero side, int64-tier entries and entries of 10**12, whose
        # sides run on Python ints
        monkeypatch.setattr(_contract, "_plans", {})
        plan = _contract._plan(d, m)
        rng = random.Random(1041 + 10 * d + m)
        for top in range(1, tops + 1):
            for n in (1, 2):
                for big in (0, 9, 10 ** 12):
                    flat = [rng.randint(-big, big) for _ in range(n ** d)]
                    assert plan.side(top, flat, n) == \
                        node_loop_side(plan, top, flat, n), (top, n, big)


class TestShippedPlans:
    """The plans of ``_contract._SHIPPED`` are read from package data,
    complete, and equal what the builder makes from scratch."""

    def test_package_data_holds_the_shipped_plans(self):
        assert _contract._SHIPPED == {(2, 2), (2, 4), (3, 2)}
        assert sorted(os.listdir(_contract._PLAN_DIR)) == sorted(
            os.path.basename(_contract._plan_file(d, m)) for d, m in _contract._SHIPPED)

    @pytest.mark.parametrize("d, m", sorted(_contract._SHIPPED))
    def test_shipped_file_is_the_generators_output(self, monkeypatch, d, m):
        # the file is byte for byte what the generator writes from a
        # fresh build, and the plan read from it is that build, on every
        # field a moment or ``find`` reads, dtypes included
        monkeypatch.setattr(_contract, "_plans", {})
        shipped = _contract._plan(d, m)
        monkeypatch.setattr(_contract, "_SHIPPED", frozenset())
        monkeypatch.setattr(_contract, "_plans", {})
        built = _contract._plan(d, m)
        with open(_contract._plan_file(d, m), "rb") as fh:
            assert fh.read() == _builder._dumps(built).encode()
        for name in ("reps", "keys", "factors", "cols", "coefs", "row_start"):
            ours, theirs = getattr(shipped, name), getattr(built, name)
            assert ours.dtype == theirs.dtype and ours.shape == theirs.shape
            assert np.array_equal(ours, theirs), name
        for name in ("start", "size", "nodes", "built"):
            assert getattr(shipped, name) == getattr(built, name), name
        assert shipped.built == m * d

    def test_moment_at_a_shipped_shape_builds_nothing(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a shipped plan must not be built")

        monkeypatch.setattr(_contract, "_plans", {})
        monkeypatch.setattr(_builder, "_compile", refuse)
        monkeypatch.setattr(_builder, "_canonical", refuse)
        rng = random.Random(1031)
        for n, d, k in ((5, 2, 2), (4, 2, 1), (4, 3, 1), (7, 2, 2)):
            a = random_int_tensor(rng, n, d, -4, 4)
            b = random_int_tensor(rng, n, d, -4, 4)
            assert moment_2k(a, b, k) == (brute_group_moment(a, b, k) if n < 7
                                          else sweep_coset_moment(
                                              a, b, k, PartialAssignment.empty()))

    def test_one_plan_read_per_shape(self, monkeypatch):
        monkeypatch.setattr(_contract, "_plans", {})
        a = random_int_tensor(random.Random(1032), 4, 2, -4, 4)
        moment_2k(a, a, 1)
        assert list(_contract._plans) == [(2, 2)]

    @pytest.mark.parametrize("shipped", [True, False], ids=["shipped", "built"])
    def test_plans_that_extend_or_look_up_shipped_ones(self, monkeypatch, shipped):
        # (2, 6) extends (2, 5), which extends (2, 4), and looks its
        # components up in (2, 1)..(2, 5); (3, 4) extends (3, 3) and so (3, 2)
        if not shipped:
            monkeypatch.setattr(_contract, "_SHIPPED", frozenset())
        monkeypatch.setattr(_contract, "_plans", {})
        loads = []
        load = _contract._load
        monkeypatch.setattr(_contract, "_load", lambda d, m: loads.append((d, m))
                            or load(d, m))
        rng = random.Random(1033)
        for n, d, k in ((2, 2, 3), (3, 2, 3), (4, 2, 3), (3, 3, 2), (3, 2, 2)):
            a = random_int_tensor(rng, n, d, -4, 4)
            b = random_int_tensor(rng, n, d, -4, 4)
            assert moment_2k(a, b, k) == brute_group_moment(a, b, k)
        assert sorted(loads) == ([(2, 2), (2, 4), (3, 2)] if shipped else [])


# a budget that is not a non-negative integer, as each entry point
# refuses it: a ValueError before any work, never a bare TypeError or a
# float compared with the counts
_BAD_BUDGETS = [2.5e8, True, "1.5", -1]


class TestBudgetValues:
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("budget", _BAD_BUDGETS)
    @pytest.mark.parametrize("call", [
        lambda a, b, v: moment_2k(a, b, 1, visit_budget=v),
        lambda a, b, v: sup_bounds(a, b, 1, visit_budget=v),
        lambda a, b, v: coset_moment(a, b, 1, PartialAssignment.empty(), v),
        lambda a, b, v: coset_moment(a, b, 1, PartialAssignment(((0, 1),)), v),
        lambda a, b, v: greedy_extract(a, b, 1, visit_budget=v),
    ], ids=["moment_2k", "sup_bounds", "coset_moment", "pinned_coset_moment",
            "greedy_extract"])
    def test_refused_as_invalid(self, call, budget, d):
        rng = random.Random(1041)
        a, b = (random_int_tensor(rng, 3, d, -3, 3) for _ in range(2))
        with pytest.raises(ValueError):
            call(a, b, budget)

    def test_integer_strings_and_zero(self):
        rng = random.Random(1042)
        a, b = (random_int_tensor(rng, 3, 2, -3, 3) for _ in range(2))
        assert moment_2k(a, b, 1, visit_budget="100000") == \
            moment_2k(a, b, 1, visit_budget=np.int64(100000))
        # budget 0 is valid, and refuses any work
        with pytest.raises(BudgetError) as exc:
            greedy_extract(a, b, 1, visit_budget=0)
        assert exc.value.budget == 0


class TestSupBounds:
    def test_two_point_tight_sandwich(self):
        a = DenseTensor.from_entries(2, 1, [1, 0])
        iv = sup_bounds(a, a, 1)
        assert iv.lower == pytest.approx(math.sqrt(0.5), rel=1e-15)
        assert iv.upper == 1.0  # 0/1 refinement: factor C(2,1) = 2

    def test_zero_one_refinement_matches_generic_at_k1(self):
        nd = 3 ** 2
        a = DenseTensor.from_entries(
            3, 2, [1, 0, 1, 0, 0, 1, 1, 1, 0])
        assert assign.bound_factor_exact(a, a, 1) == nd == math.comb(nd, 1)

    def test_generic_factor_for_general_entries(self):
        rng = random.Random(11)
        a = random_int_tensor(rng, 3, 1, 2, 9)
        assert assign.bound_factor_exact(a, a, 2) == math.comb(3 + 1, 2)

    def test_zero_one_factor_is_binomial_tail_sum(self):
        a = DenseTensor.from_entries(2, 2, [1, 0, 0, 1])
        nd = 4
        assert assign.bound_factor_exact(a, a, 2) == \
            math.comb(nd, 1) + math.comb(nd, 2)

    def test_sandwich_contains_brute_max(self):
        rng = random.Random(12)
        for _ in range(20):
            n, d, k = rng.randint(2, 4), rng.randint(1, 2), rng.randint(1, 2)
            a = random_int_tensor(rng, n, d, -3, 3)
            b = random_int_tensor(rng, n, d, -3, 3)
            iv = sup_bounds(a, b, k)
            best = brute_max(a, b).abs_value
            # exact comparisons at the 2k-power level
            assert iv.lower_exact <= best ** (2 * k) <= iv.upper_exact

    def test_constant_tensors(self):
        a = DenseTensor.from_entries(3, 1, [1, 1, 1])
        iv = sup_bounds(a, a, 2)
        assert iv.lower == pytest.approx(3.0, rel=1e-15)
        assert iv.upper >= 3.0

    def test_float_ends_rounded_outward(self):
        # f(g) = 1/10 for every g, and the float nearest 1/10 lies above it
        a = DenseTensor.from_entries(2, 1, [Fraction(1, 10), 0])
        b = DenseTensor.from_entries(2, 1, [1, 1])
        iv = sup_bounds(a, b, 1)
        assert Fraction(iv.lower) <= Fraction(1, 10) <= Fraction(iv.upper)
        assert Fraction(iv.lower) ** 2 <= iv.lower_exact
        assert Fraction(iv.upper) ** 2 >= iv.upper_exact


def _mod_vectors(n):
    return [7 * i % 5 for i in range(n)], [3 * i % 4 for i in range(n)]


def _closed_form_k1(a, b):
    """E[f**2] for f = sum a_i b_g(i) over all bijections g."""
    n = len(a)
    sa, qa = sum(a), sum(x * x for x in a)
    sb, qb = sum(b), sum(x * x for x in b)
    return Fraction(qa * qb, n) + Fraction((sa * sa - qa) * (sb * sb - qb), n * (n - 1))


def _greedy_scores(flat_a, flat_b, n, d, m, chosen, cands=None):
    """One greedy sweep step's raw candidate scores, from a new scorer,
    with positions 0..len(chosen) pinned; the candidates default to
    every image not in ``chosen``."""
    if cands is None:
        cands = tuple(c for c in range(n) if c not in chosen)
    scores, _ = _typesweep.PinnedScorer(
        nonzero_side(flat_a), nonzero_side(flat_b), n, d, m).scores(
        tuple(enumerate(chosen)), len(chosen), cands)
    return scores


class TestWideIndices:
    """Index values at and above 128 must not wrap in the type sweep."""

    @pytest.mark.parametrize("n", [127, 128, 129, 130])
    def test_moment_matches_closed_form(self, n):
        a, b = _mod_vectors(n)
        got = moment_2k(DenseTensor.from_entries(n, 1, a),
                        DenseTensor.from_entries(n, 1, b), 1)
        assert got == _closed_form_k1(a, b)

    @pytest.mark.parametrize("n", [128, 130])
    def test_sweep_matches_closed_form(self, n):
        # moment_2k uses power sums at d = 1; force the sweep here
        a, b = _mod_vectors(n)
        got = sweep_coset_moment(DenseTensor.from_entries(n, 1, a),
                                 DenseTensor.from_entries(n, 1, b), 1,
                                 PartialAssignment.empty())
        assert got == _closed_form_k1(a, b)

    def test_candidate_pins_above_127(self):
        # pin positions 0..t-1 to chosen + (c,); the free part is an
        # unconstrained bijection of the other n - t coordinates, and a
        # chosen image above 127 keeps the pattern digits past int8
        n = 130
        a, b = _mod_vectors(n)
        cands = (126, 127, 128)
        for chosen in ((), (129,)):
            t = len(chosen) + 1
            scores = _greedy_scores(a, b, n, 1, 2, chosen, cands)
            assert sorted(scores) == list(cands)
            for c in cands:
                images = chosen + (c,)
                rest_a = a[t:]
                rest_b = [v for i, v in enumerate(b) if i not in images]
                shift = sum(a[i] * b[q] for i, q in enumerate(images))
                mean = Fraction(sum(rest_a) * sum(rest_b), n - t)
                expected = (shift ** 2 + 2 * shift * mean
                            + _closed_form_k1(rest_a, rest_b))
                assert Fraction(scores[c], math.perm(n - t, 2)) == expected


class TestManyPinSweep:
    """The sweep's group ids grow with its groups, not with its pins or
    its index positions, so no key range refuses a sweep."""

    @staticmethod
    def _sparse(rng, n, d, nnz):
        flat = [0] * n ** d
        for i in rng.sample(range(n ** d), nnz):
            flat[i] = rng.choice((-3, -2, -1, 1, 2, 3))
        return DenseTensor.from_entries(n, d, flat)

    @staticmethod
    def _completions_average(a, b, k, prefix):
        """The average over the coset's (n - len(prefix))! completions,
        one permutation at a time, for integer tensors."""
        flat_a = [int(v) for v in a.entries]
        flat_b = [int(v) for v in b.entries]
        total = loop_coset_power_sums(
            nonzero_digit_entries(flat_a, a.n, a.d), flat_b, a.n,
            a.d, 2 * k, prefix.pairs, None)
        return Fraction(total, math.factorial(a.n - len(prefix)))

    def test_six_pin_coset_matches_brute_force(self, monkeypatch):
        # n = 9, d = 2, k = 3 with 6 pins: keys packing type and pin
        # pattern would need 9**12 * 7**9 > 2**63 values
        monkeypatch.setattr(assign, "_enumeration_cheaper", lambda *args: False)
        rng = random.Random(921)
        n, k = 9, 3
        # B relabels A by g, so f(g) > 0 and the coset of g is not all 0
        g = Permutation(tuple(rng.sample(range(n), n)))
        a = self._sparse(rng, n, 2, 6)
        b = apply_perm(g, a)
        prefix = PartialAssignment(tuple((p, g(p))
                                         for p in rng.sample(range(n), 6)))
        moment = coset_moment(a, b, k, prefix)
        assert moment == self._completions_average(a, b, k, prefix) != 0

    def test_type_keys_past_int64(self, monkeypatch):
        # l = 16 index positions in base 16 need 16**16 > 2**63 type
        # keys, which are then Python ints
        monkeypatch.setattr(assign, "_enumeration_cheaper", lambda *args: False)
        n, k = 16, 4
        digits = np.array([[0, 1], [2, 3]], dtype=np.int8)
        keys = _typesweep._build_chunk(digits, np.array([[1, 1]]), n, 2 * k,
                                       0, 4)[0]
        assert keys.dtype == object and len(set(keys.tolist())) == 4
        a = DenseTensor.from_sparse(n, 2, {(0, 1): 2, (1, 2): -1, (2, 0): 3})
        b = DenseTensor.from_sparse(n, 2, {(0, 1): 1, (1, 2): 2, (2, 1): -3})
        prefix = PartialAssignment(tuple((p, p) for p in range(3, n)))
        moment = coset_moment(a, b, k, prefix)
        assert moment == self._completions_average(a, b, k, prefix) != 0


# largest entry whose 24 = perm(4, 4) products of two entries still sum
# within int64, at n = 4, d = 2, k = 1
_INT64_TOP = math.isqrt((2 ** 63 - 1) // math.perm(4, 4))


class TestEntryDtypeBoundary:
    """The sweep sums exactly in int64 while perm(n, rmax) * top**(2k)
    fits in int64, and in residues modulo primes above that."""

    # the ids keep the names of the tiers that summed above the boundary
    # in Python ints ("object") before residues
    @pytest.mark.parametrize("top,exact", [
        pytest.param(_INT64_TOP, True, id=f"{_INT64_TOP}-int64"),
        pytest.param(_INT64_TOP + 1, False, id=f"{_INT64_TOP + 1}-object")])
    @pytest.mark.parametrize("signs", ["equal", "mixed"])
    def test_sweep_matches_brute_force(self, top, exact, signs):
        n, d, k = 4, 2, 1
        rng = random.Random(top)

        def entries():
            return [top if signs == "equal" or rng.random() < 0.5 else -top
                    for _ in range(n ** d)]

        flat_a, flat_b = entries(), entries()
        moduli = _residue.Moduli.for_bound(2 ** 200)
        side_exact, arr = _typesweep._entry_residues(flat_a, n, 4, 2 * k, moduli)
        assert side_exact == exact
        assert arr.shape == ((1, n ** d) if exact else (moduli.size, n ** d))
        a = DenseTensor.from_entries(n, d, flat_a)
        b = DenseTensor.from_entries(n, d, flat_b)
        moment = moment_2k(a, b, k)
        assert moment == brute_group_moment(a, b, k)
        for pairs in ((), ((0, 2),), ((0, 2), (3, 1))):
            prefix = PartialAssignment(pairs)
            assert sweep_coset_moment(a, b, k, prefix) == \
                brute_coset_average(a, b, k, prefix)
        for chosen in ((), (3, 0)):
            t = len(chosen) + 1
            scores = _greedy_scores(flat_a, flat_b, n, d, 2 * k, chosen)
            for c, score in scores.items():
                expected = brute_coset_average(a, b, k, PartialAssignment(
                    tuple(enumerate(chosen + (c,)))))
                free = n - t
                assert Fraction(score, math.perm(free, min(4, free))) == expected
        assert greedy_extract(a, b, k).value ** (2 * k) >= moment


class TestGreedyScores:
    """One greedy sweep step scores every candidate image c from one
    grouping of each side's rows; over the common denominator
    perm(N, F) each score is the exact average over c's child coset."""

    def test_every_step_matches_brute_force(self):
        rng = random.Random(901)
        # n = 7 at d = 3 is left out: its brute force, 28 passes over
        # 7! permutations with 343-entry Fraction sums, takes about 14 s
        shapes = [(n, d, k) for n in range(4, 8) for d in (2, 3)
                  for k in (1, 2)
                  if n ** (2 * k * d) <= 5 ** 8 and (n, d) != (7, 3)]
        for n, d, k in shapes:
            m = 2 * k
            a = random_int_tensor(rng, n, d, -3, 3)
            b = random_int_tensor(rng, n, d, -3, 3)
            flat_a = [int(v) for v in a.entries]
            flat_b = [int(v) for v in b.entries]
            scorer = _typesweep.PinnedScorer(
                nonzero_side(flat_a), nonzero_side(flat_b), n, d, m)
            order = rng.sample(range(n), n)
            for t in range(1, n + 1):
                chosen = tuple(order[:t - 1])
                cands = tuple(sorted(set(range(n)) - set(chosen)))
                scores, den = scorer.scores(tuple(enumerate(chosen)), t - 1,
                                            cands)
                assert sorted(scores) == list(cands)
                free = n - t
                assert den == math.perm(free, min(m * d, free))
                prefix = tuple(enumerate(chosen))
                for c, score in scores.items():
                    assert Fraction(score, den) == brute_coset_average(
                        a, b, k, PartialAssignment(prefix + ((t - 1, c),)))

    @pytest.mark.parametrize("top", [3, 10 ** 12])
    def test_chunked_sweep_matches_unchunked(self, monkeypatch, top):
        # nnz**2 rows (961 or 1296) in chunks of 250, the last one
        # partial; top = 10**12 sums in Python ints
        n, d, m = 6, 2, 2
        rng = random.Random(902 + top)
        flat_a = [rng.randint(-top, top) for _ in range(n ** d)]
        flat_b = [rng.randint(-top, top) for _ in range(n ** d)]
        order = rng.sample(range(n), n)
        steps = [order[:t] for t in range(n)]

        def extraction():
            # one scorer across all n steps, as greedy_extract runs it
            scorer = _typesweep.PinnedScorer(
                nonzero_side(flat_a), nonzero_side(flat_b), n, d, m)
            return [scorer.scores(tuple(enumerate(c)), len(c),
                                  [j for j in range(n) if j not in c])[0]
                    for c in steps]

        whole = [_greedy_scores(flat_a, flat_b, n, d, m, c) for c in steps]
        assert extraction() == whole
        moduli = _typesweep.PinnedScorer(
            nonzero_side(flat_a), nonzero_side(flat_b), n, d, m).moduli
        # both sides have entries of one tier, so rows of one size
        row_bytes = _typesweep.sweep_rows(*nonzero_side(flat_a), n, d, m, moduli)[2]
        monkeypatch.setattr(_typesweep, "CACHE_BYTES", 100 * row_bytes)
        monkeypatch.setattr(_typesweep, "CHUNK_BYTES", 250 * row_bytes)
        exact, count, _, chunks = _typesweep.sweep_rows(
            *nonzero_side(flat_a), n, d, m, moduli)
        assert exact == (top == 3) and (moduli.size > 1) == (top > 3)
        assert count == sum(1 for v in flat_a if v) ** 2
        assert count % 250 and len(list(chunks())) == count // 250 + 1
        assert [_greedy_scores(flat_a, flat_b, n, d, m, c)
                for c in steps] == whole
        assert extraction() == whole
        # one candidate of a step, as coset_moment asks, reads the same
        # cells out of the chunks
        for c, scores in zip(steps, whole):
            cand = order[len(c)]
            assert _greedy_scores(flat_a, flat_b, n, d, m, c, (cand,)) == \
                {cand: scores[cand]}

    @pytest.mark.parametrize("swap", [False, True])
    def test_one_side_kept_one_streamed(self, monkeypatch, swap):
        # with CACHE_MAX between the sides' row counts, the sparser side
        # is kept with its ids and the other rebuilt at every step, its
        # ids replayed through the tables the first steps made
        n, d, m = 6, 2, 2
        rng = random.Random(906)
        sparse = [rng.choice((0, 0, 1, -2, 3)) for _ in range(n ** d)]
        dense = [rng.randint(-3, 3) or 1 for _ in range(n ** d)]
        flat_a, flat_b = (dense, sparse) if swap else (sparse, dense)
        order = rng.sample(range(n), n)
        steps = [order[:t] for t in range(n)]
        whole = [_greedy_scores(flat_a, flat_b, n, d, m, c) for c in steps]
        # the dense side's 36**2 rows of 8-byte ids and products and 4
        # int8 block values, less one byte
        monkeypatch.setattr(_typesweep, "CACHE_BYTES", (n * n) ** 2 * 20 - 1)
        monkeypatch.setattr(_typesweep, "CHUNK_BYTES", 250 * 20)
        scorer = _typesweep.PinnedScorer(
            nonzero_side(flat_a), nonzero_side(flat_b), n, d, m)
        assert [scorer.scores(tuple(enumerate(c)), len(c),
                              [j for j in range(n) if j not in c])[0]
                for c in steps] == whole
        assert [kept is None for kept in scorer.kept] == [swap, not swap]

    @pytest.mark.parametrize("k", [1, 2])
    def test_budget_counts_rows_of_nonzero_entries(self, monkeypatch, k):
        # a row is one choice of 2k nonzero entries of a side: B's 9
        # outnumber A's 5, so the sweep visits 9**(2k) rows where the
        # index sequences number 8**(4k)
        monkeypatch.setattr(assign, "_enumeration_cheaper", lambda *args: False)
        rng = random.Random(905)
        n = 8

        def sparse(nnz):
            flat = [0] * n * n
            for i in rng.sample(range(n * n), nnz):
                flat[i] = rng.choice((-3, -2, -1, 1, 2, 3))
            return DenseTensor.from_entries(n, 2, flat)

        a, b = sparse(5), sparse(9)
        rows = 9 ** (2 * k)
        # one pin: the enumeration's 7! * 5 evaluations exceed the rows
        prefix = PartialAssignment(((2, 5),))
        calls = (lambda budget: coset_moment(a, b, k, prefix, budget),
                 lambda budget: greedy_extract(a, b, k, budget))
        for call in calls:
            call(rows)
            with pytest.raises(BudgetError) as exc:
                call(rows - 1)
            assert (exc.value.required, exc.value.budget) == (rows, rows - 1)

    def test_zero_sides_score_zero(self):
        n, d, m = 4, 2, 2
        flat = list(range(1, n ** d + 1))
        for flat_a, flat_b in (([0] * n ** d, flat), (flat, [0] * n ** d)):
            assert _greedy_scores(flat_a, flat_b, n, d, m, (2,)) == \
                {0: 0, 1: 0, 3: 0}


class TestStreamedSweepMemory:
    """A streamed sweep holds at most CHUNK_BYTES of rows at a time, so
    rows of several residues come in smaller chunks and its memory per
    row does not grow with the residues."""

    # tracemalloc peaks of the call below per row of a 4096-row chunk,
    # measured at the commit before residues (its chunks were counted in
    # rows, and entries near 10**13 were summed in Python ints)
    @pytest.mark.parametrize("top,parent_bytes", [(3, 133), (10 ** 13, 217)])
    def test_bytes_per_row(self, monkeypatch, top, parent_bytes):
        import tracemalloc

        rows, n = 4096, 12
        # chunks of 4096 rows of one residue (8-byte ids and products, 4
        # int8 block values), and a cache of two: both sides stream
        monkeypatch.setattr(_typesweep, "CHUNK_BYTES", rows * 20)
        monkeypatch.setattr(_typesweep, "CACHE_BYTES", 2 * rows * 20)
        monkeypatch.setattr(assign, "_enumeration_cheaper", lambda *args: False)
        rng = random.Random(1207)

        def tensor():
            return DenseTensor.from_entries(n, 2, [
                rng.choice((-1, 1)) * rng.randint(1, top)
                if rng.random() < 0.85 else 0 for _ in range(n * n)])

        a, b = tensor(), tensor()
        prefix = PartialAssignment(((0, 3), (5, 7)))
        scorer = _typesweep.PinnedScorer(
            nonzero_side(a.ints), nonzero_side(b.ints), n, 2, 2)
        for exact, count, row_bytes, _ in scorer.sweep:
            assert exact == (top == 3) and count * row_bytes > 2 * rows * 20
        assert (scorer.moduli.size > 1) == (top > 3)
        want = coset_moment(a, b, 1, prefix)  # warm: imports, moduli
        tracemalloc.start()
        try:
            assert coset_moment(a, b, 1, prefix) == want
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= parent_bytes * rows


def _random_pairs(rng, n, size):
    return tuple(zip(rng.sample(range(n), size), rng.sample(range(n), size)))


class TestSweepLabels:
    @pytest.mark.parametrize("n", [3, 6, 9, 128, 131])
    def test_matches_mask_labelling(self, n):
        # sweep rows of random tensors, int8 indices below n = 128 and
        # int16 from 128 on, whole and in ranges of row ids
        rng = random.Random(1020 + n)
        for d, m in ((1, 4), (2, 2), (2, 3), (3, 2)):
            flat = [0] * n ** d
            for pos in rng.sample(range(n ** d), min(n ** d, 7)):
                flat[pos] = rng.choice((-3, -1, 2, 5))
            exact, arr = _typesweep._entry_residues(
                flat, n, min(m * d, n), m, _residue.Moduli.for_bound(0))
            assert exact
            nz = np.flatnonzero(arr[0])
            digits = np.stack(np.unravel_index(nz, (n,) * d), axis=1) \
                .astype(_typesweep._index_dtype(n))
            if n >= 128:
                assert digits.dtype == np.int16
            total = len(nz) ** m
            for start, stop in ((0, total), (total // 3, total - 5)):
                got = _typesweep._build_chunk(digits, arr[:, nz], n, m, start, stop)
                want = mask_build_chunk(digits, arr[0, nz], n, m, start, stop)
                for x, y in zip(got, (want[0], want[1], want[2][None])):
                    assert x.dtype == y.dtype and np.array_equal(x, y)


class TestCosetEnumeration:
    """The numpy coset enumeration against the one-permutation-at-a-time
    loop in ``tests/helpers``, split by the first free position and by
    the first pinned one, and added up, its residues rebuilt by moduli
    that hold the whole coset's sum."""

    @staticmethod
    def _check(flat_a, flat_b, n, d, m, pairs):
        a, b = DenseTensor(n, d, flat_a), DenseTensor(n, d, flat_b)
        nz_a = nonzero_digit_entries(flat_a, n, d)
        free = [p for p in range(n) if p not in dict(pairs)]
        moduli = _residue.Moduli.for_bound(
            math.factorial(len(free)) * _residue.f_bound(flat_a, flat_b) ** m)
        total = loop_coset_power_sums(nz_a, flat_b, n, d, m, pairs, None)
        for split_pos in free[:1] + [p for p, _ in pairs][:1]:
            got = moduli.values(assign._enumerate_coset_power_sums(
                assign._coset_inputs(a, b), m, pairs, split_pos, moduli))
            want = loop_coset_power_sums(nz_a, flat_b, n, d, m, pairs,
                                         split_pos)
            # images no permutation reaches read 0
            assert got == [want.get(j, 0) for j in range(n)]
            assert sum(got) == total
        # f**m of each permutation, as the kept coset holds them
        powers = assign._enumerate_coset_power_sums(
            assign._coset_inputs(a, b), m, pairs, None, moduli)
        assert powers.shape == (moduli.size, math.factorial(len(free)))
        assert sum(moduli.values(powers)) == total

    def test_random_cosets(self):
        rng = random.Random(601)
        for _ in range(40):
            n, d, m = rng.randint(1, 6), rng.randint(1, 3), rng.choice((2, 4))
            flat_a = [rng.randint(-3, 3) for _ in range(n ** d)]
            flat_b = [rng.randint(-3, 3) for _ in range(n ** d)]
            self._check(flat_a, flat_b, n, d, m,
                        _random_pairs(rng, n, rng.randint(0, n)))

    @pytest.mark.parametrize("free", [0, 1])
    def test_full_prefix_and_one_free_coordinate(self, free):
        rng = random.Random(602 + free)
        for n, d in ((3, 2), (4, 3), (5, 2)):
            flat_a = [rng.randint(-4, 4) for _ in range(n ** d)]
            flat_b = [rng.randint(-4, 4) for _ in range(n ** d)]
            self._check(flat_a, flat_b, n, d, 2,
                        _random_pairs(rng, n, n - free))

    def test_all_zero_a(self):
        n, d = 4, 2
        flat_b = list(range(n ** d))
        for pairs in ((), ((1, 2),), ((0, 0), (1, 1), (2, 3), (3, 2))):
            self._check([0] * n ** d, flat_b, n, d, 2, pairs)
        moduli = _residue.Moduli.for_bound(0)
        assert moduli.values(assign._enumerate_coset_power_sums(
            assign._coset_inputs(DenseTensor.zeros(n, d), DenseTensor(n, d, flat_b)),
            2, ((1, 2),), 0, moduli)) == [0, 0, 0, 0]

    @pytest.mark.parametrize("case,dtype", [("at", np.int64), ("above", object)])
    @pytest.mark.parametrize("signs", ["equal", "mixed"])
    def test_int64_bound(self, monkeypatch, case, dtype, signs):
        # nnz * max|a| * max|b| bounds every f and partial sum: the exact
        # f is int64 up to 2**63 - 1 and Python ints beyond, and the
        # enumeration's residues of f, reduced from the int64 f or summed
        # in the residues of the entries, are those of the exact f
        if case == "at":
            nnz, top_a = 7, 7 * 73 * 127
            top_b = (2 ** 63 - 1) // (nnz * top_a)
            assert nnz * top_a * top_b == 2 ** 63 - 1
        else:
            nnz, top_a, top_b = 8, 2 ** 30, 2 ** 30
            assert nnz * top_a * top_b == 2 ** 63
        n, d = 3, 2
        rng = random.Random(signs)
        sign = (lambda: 1) if signs == "equal" else (lambda: rng.choice((-1, 1)))
        flat_a = [sign() * top_a for _ in range(nnz)] + [0] * (n ** d - nnz)
        flat_b = [sign() * top_b for _ in range(n ** d)]
        seen = []
        values = assign._coset_values

        def spy(*args):
            *exact_args, moduli = args
            for (img, f), (_, exact) in zip(values(*args), values(*exact_args)):
                seen.append(exact.dtype)
                assert np.array_equal(f, moduli.of(exact.tolist()))
                yield img, f

        monkeypatch.setattr(assign, "_coset_values", spy)
        for pairs in ((), ((2, 0),)):
            self._check(flat_a, flat_b, n, d, 2, pairs)
        assert seen and set(seen) == {np.dtype(dtype)}

    @pytest.mark.parametrize("chunk", [1, 5, 24, 100])
    def test_chunk_boundaries(self, monkeypatch, chunk):
        # rows per block = chunk // max(n, nnz): one row, a few rows, or
        # blocks of 2 or 3! rows with a fixed head of leading values
        monkeypatch.setattr(assign, "_CHUNK_SIZE", chunk * 5)
        rng = random.Random(604 + chunk)
        n, d = 5, 1
        flat_a = [rng.randint(-3, 3) or 1 for _ in range(n)]
        flat_b = [rng.randint(-3, 3) for _ in range(n)]
        for size in (0, 1, 2):
            self._check(flat_a, flat_b, n, d, 4, _random_pairs(rng, n, size))

    def test_blocks_follow_itertools_order(self):
        for values, max_rows in (((), 10), ((4,), 1), ((1, 3, 4, 6), 7),
                                 ((0, 2, 5, 6, 8), 0), ((9, 1, 2), 100)):
            rows = np.concatenate(list(assign.permutation_blocks(values, max_rows)))
            assert rows.shape == (math.factorial(len(values)), len(values))
            assert list(map(tuple, rows.tolist())) == \
                list(itertools.permutations(values))


class TestIntegerCombine:
    """The greedy step compares its candidates' raw integer sums over
    their one denominator, on either route."""

    @pytest.mark.parametrize("n,d", [(6, 2), (5, 3)])
    @pytest.mark.parametrize("enumerate_cosets", [False, True])
    def test_all_equal_tensors_tie_to_identity(self, monkeypatch, n, d,
                                               enumerate_cosets):
        monkeypatch.setattr(assign, "_enumeration_cheaper",
                            lambda *args: enumerate_cosets)
        spy = []
        sweep = _typesweep.PinnedScorer.scores
        enum = assign._enumerate_coset_power_sums
        monkeypatch.setattr(_typesweep.PinnedScorer, "scores",
                            lambda *a: spy.append("sweep") or sweep(*a))
        monkeypatch.setattr(assign, "_enumerate_coset_power_sums",
                            lambda *a: spy.append("enumerate") or enum(*a))
        a = DenseTensor.from_entries(n, d, [3] * n ** d)
        b = DenseTensor.from_entries(n, d, [Fraction(-1, 2)] * n ** d)
        result = greedy_extract(a, b, 1)
        assert result.permutation == identity(n)
        assert set(spy) == {"enumerate" if enumerate_cosets else "sweep"}

    def test_one_enumeration_per_extraction(self, monkeypatch):
        # the 21-edge n = 14 d = 2 hypergraph pair sweeps its first steps
        # and enumerates its tail: the first enumerating step enumerates
        # its parent coset once, and each later step sums blocks of it
        calls = []
        enum = assign._enumerate_coset_power_sums
        # the split position: None enumerates a parent to keep
        monkeypatch.setattr(assign, "_enumerate_coset_power_sums",
                            lambda *a: calls.append(a[3]) or enum(*a))
        a, b = _oracle_pair("hyper-2-14")
        result = greedy_extract(a, b, 1)
        assert calls == [None]
        # with no coset kept, every enumerating step enumerates its parent
        monkeypatch.setattr(assign, "_KEEP_BYTES", 0)
        calls.clear()
        assert greedy_extract(a, b, 1) == result
        assert len(calls) > 1 and None not in calls

    # (seed, n, d, k, entry range) -> greedy images and value, as computed
    # with one Fraction per group and a Python loop per permutation
    PINNED = [
        ((601, 6, 2, 1, -3, 3), (1, 2, 4, 0, 5, 3), 64),
        ((602, 7, 2, 1, -3, 3), (5, 3, 1, 2, 4, 6, 0), -79),
        ((603, 8, 2, 1, 0, 1), (1, 0, 3, 6, 4, 7, 5, 2), 23),
        ((604, 5, 2, 2, -2, 2), (4, 0, 1, 3, 2), 25),
        ((605, 7, 3, 1, -3, 3), (4, 2, 5, 6, 0, 1, 3), 181),
        ((606, 10, 2, 1, -9, 9), (1, 5, 7, 2, 3, 0, 9, 6, 8, 4), -1386),
    ]

    @pytest.mark.parametrize("case,images,value", PINNED)
    def test_pinned_greedy(self, case, images, value):
        seed, n, d, k, lo, hi = case
        rng = random.Random(seed)
        a = random_int_tensor(rng, n, d, lo, hi)
        b = random_int_tensor(rng, n, d, lo, hi)
        result = greedy_extract(a, b, k)
        assert (result.permutation.images, result.value) == (images, value)


def _vector(rng, kind, n):
    if kind == "zero":
        return DenseTensor.zeros(n, 1)
    if kind == "negative":
        return DenseTensor.from_entries(n, 1, [-rng.randint(0, 5) for _ in range(n)])
    return random_rational_tensor(rng, n, 1)


def _partition_count(j, parts):
    """Number of integer partitions of j with at most ``parts`` parts,
    counted by conjugation as partitions into parts of size <= ``parts``."""
    ways = [1] + [0] * j
    for part in range(1, min(parts, j) + 1):
        for total in range(part, j + 1):
            ways[total] += ways[total - part]
    return ways[j]


def _d1_terms(k, parts):
    return sum(_partition_count(j, parts) for j in range(2 * k + 1))


class TestPowerSumRoute:
    """At d = 1, moments, cosets and greedy come from power sums."""

    @pytest.mark.parametrize("kind", ["zero", "negative", "rational"])
    def test_auto_matches_typesweep_and_brute(self, kind):
        # covers n < 2k (partitions with more than n parts drop out)
        # and n > 2k, with empty, partial and full prefixes
        rng = random.Random(230)
        for n in range(1, 8):
            for k in range(1, 5):
                a, b = _vector(rng, kind, n), _vector(rng, kind, n)
                t = rng.randint(1, n - 1) if n > 1 else 1
                for size in (0, t, n):
                    prefix = PartialAssignment(tuple(zip(
                        rng.sample(range(n), size), rng.sample(range(n), size))))
                    got = coset_moment(a, b, k, prefix)
                    assert got == brute_coset_average(a, b, k, prefix)
                    if n ** (2 * k) <= 4 ** 8:
                        assert got == sweep_coset_moment(a, b, k, prefix)

    def test_never_sweeps_or_enumerates(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("d = 1 must not sweep or enumerate")

        rng = random.Random(231)
        a = random_int_tensor(rng, 8, 1, -3, 3)
        b = random_int_tensor(rng, 8, 1, -3, 3)
        prefix = PartialAssignment(((0, 3), (5, 1)))
        expected = (moment_2k(a, b, 2), coset_moment(a, b, 2, prefix),
                    greedy_extract(a, b, 2))
        monkeypatch.setattr(_typesweep, "sweep_rows", refuse)
        monkeypatch.setattr(_typesweep.PinnedScorer, "scores", refuse)
        monkeypatch.setattr(assign, "_enumerate_coset_power_sums", refuse)
        assert (moment_2k(a, b, 2), coset_moment(a, b, 2, prefix),
                greedy_extract(a, b, 2)) == expected
        with pytest.raises(AssertionError):
            sweep_coset_moment(a, b, 2, prefix)

    def test_moment_budget_boundary(self):
        a = DenseTensor.from_entries(5, 1, [1, -2, 3, 0, 4])
        # the coset has four free coordinates, as many as 2k
        required = _d1_terms(2, 4) + 5 * 4
        assert required == 12 + 20
        moment_2k(a, a, 2, visit_budget=required)
        coset_moment(a, a, 2, PartialAssignment(((0, 1),)), visit_budget=required)
        with pytest.raises(BudgetError) as exc:
            moment_2k(a, a, 2, visit_budget=required - 1)
        assert (exc.value.required, exc.value.budget, exc.value.k) == \
            (required, required - 1, 2)
        with pytest.raises(BudgetError):
            coset_moment(a, a, 2, PartialAssignment(((0, 1),)),
                         visit_budget=required - 1)

    def test_greedy_budget_boundary(self):
        a = DenseTensor.from_entries(5, 1, [1, -2, 3, 0, 4])
        # step t compares 5 - t candidate cosets with 4 - t free coordinates
        required = sum((5 - t) * _d1_terms(2, min(4, 4 - t))
                       for t in range(5)) + 5 * 4
        assert required == 5 * 12 + 4 * 11 + 3 * 9 + 2 * 5 + 1 + 20
        greedy_extract(a, a, 2, visit_budget=required)
        with pytest.raises(BudgetError) as exc:
            greedy_extract(a, a, 2, visit_budget=required - 1)
        assert exc.value.required == required

    def test_large_k_refused_before_any_work(self):
        # 2k = 100 with 100 coordinates: about 1.3e9 partition terms, which
        # the budget must refuse by counting, without building them
        a = DenseTensor.from_entries(100, 1, range(100))
        calls = (lambda: moment_2k(a, a, 50),
                 lambda: coset_moment(a, a, 50, PartialAssignment(((0, 0),))),
                 lambda: greedy_extract(a, a, 50))
        start = time.perf_counter()
        for call in calls:
            with pytest.raises(BudgetError) as exc:
                call()
            assert exc.value.required > exc.value.budget == assign.DEFAULT_VISIT_BUDGET
        assert time.perf_counter() - start < 1.0

    def test_few_coordinates_large_k(self):
        # at most n parts: n = 1 charges one term per j, n = 2 about j / 2
        a = DenseTensor.from_entries(1, 1, [Fraction(3, 2)])
        b = DenseTensor.from_entries(1, 1, [-2])
        assert moment_2k(a, b, 50) == 3 ** 100
        assert moment_2k(a, b, 2, visit_budget=_d1_terms(2, 1) + 4) == 3 ** 4
        assert greedy_extract(a, b, 50).permutation == identity(1)
        a = DenseTensor.from_entries(2, 1, [1, 3])
        b = DenseTensor.from_entries(2, 1, [2, -1])
        # f(identity) = -1, f(swap) = 5
        assert moment_2k(a, b, 50) == Fraction(1 + 5 ** 100, 2)
        result = greedy_extract(a, b, 50)
        assert (result.permutation.images, result.value) == ((1, 0), 5)

    def test_moment_at_ten_thousand(self):
        n = 10 ** 4
        a, b = _mod_vectors(n)
        got = moment_2k(DenseTensor.from_entries(n, 1, a),
                        DenseTensor.from_entries(n, 1, b), 1)
        assert got == _closed_form_k1(a, b)

    @pytest.mark.parametrize("n,k", [(129, 1), (40, 2)])
    def test_greedy_beyond_the_sweep(self, n, k):
        rng = random.Random(n)
        a = random_int_tensor(rng, n, 1, -9, 9)
        b = random_int_tensor(rng, n, 1, -9, 9)
        result = greedy_extract(a, b, k)
        assert result.value ** (2 * k) >= moment_2k(a, b, k)
        assert result.value == matrix_element(a, b, result.permutation)


def _tensor_of_density(rng, n, d, density):
    """Entries in -3..3: all drawn ("dense"), or nonzero only at one
    random index, on the diagonal, or at each index with chance 1/10."""
    if density == "dense":
        return random_int_tensor(rng, n, d, -3, 3)
    cells = {"one": [rng.randrange(n ** d)],
             "diagonal": [i * sum(n ** j for j in range(d)) for i in range(n)],
             "tenth": [i for i in range(n ** d) if rng.random() < 0.1]}[density]
    flat = [0] * n ** d
    for i in cells:
        flat[i] = rng.choice((-3, -2, -1, 1, 2, 3))
    return DenseTensor.from_entries(n, d, flat)


class TestCosetMoment:
    @pytest.mark.parametrize("k, pairs, match", [
        (0, (), "k must be"),
        (1, ((0, 3),), "out of range"),
        (1, ((3, 0),), "out of range"),
        (1, ((-1, 0),), "out of range"),
    ])
    def test_k_and_prefix_checked(self, k, pairs, match):
        a = DenseTensor.zeros(3, 2)
        with pytest.raises(ValueError, match=match):
            coset_moment(a, a, k, PartialAssignment(pairs))

    def test_empty_prefix_is_moment(self):
        rng = random.Random(13)
        a = random_int_tensor(rng, 3, 2, -3, 3)
        b = random_int_tensor(rng, 3, 2, -3, 3)
        assert coset_moment(a, b, 1, PartialAssignment.empty()) == \
            moment_2k(a, b, 1)

    def test_full_prefix_is_point_evaluation(self):
        rng = random.Random(14)
        for _ in range(10):
            n, d = rng.randint(2, 4), rng.randint(1, 2)
            a = random_int_tensor(rng, n, d, -3, 3)
            b = random_int_tensor(rng, n, d, -3, 3)
            g = random_permutation(rng, n)
            prefix = PartialAssignment(tuple((i, g.images[i]) for i in range(n)))
            k = rng.randint(1, 2)
            assert coset_moment(a, b, k, prefix) == \
                matrix_element(a, b, g) ** (2 * k)

    def test_two_point_cosets(self):
        a = DenseTensor.from_entries(2, 1, [1, 0])
        assert coset_moment(a, a, 1, PartialAssignment(((0, 0),))) == 1
        assert coset_moment(a, a, 1, PartialAssignment(((0, 1),))) == 0

    def test_typesweep_matches_brute_coset_average(self):
        # pin the type-pattern path so the dual-route check never
        # degenerates into enumeration against enumeration; the sparse
        # inputs sweep far fewer rows than index sequences
        rng = random.Random(15)
        for density in ("dense",) * 30 + ("one", "diagonal", "tenth") * 8:
            n, d = rng.randint(2, 4), rng.randint(1, 2)
            k = rng.randint(1, 2)
            a = _tensor_of_density(rng, n, d, density)
            b = _tensor_of_density(rng, n, d, density)
            t = rng.randint(0, n)
            prefix = PartialAssignment(tuple(zip(
                rng.sample(range(n), t), rng.sample(range(n), t))))
            assert sweep_coset_moment(a, b, k, prefix) == \
                brute_coset_average(a, b, k, prefix)

    def test_all_methods_agree(self):
        rng = random.Random(151)
        for _ in range(15):
            n, d = rng.randint(2, 4), rng.randint(1, 2)
            k = rng.randint(1, 2)
            a = random_rational_tensor(rng, n, d)
            b = random_rational_tensor(rng, n, d)
            t = rng.randint(0, n)
            prefix = PartialAssignment(tuple(zip(
                rng.sample(range(n), t), rng.sample(range(n), t))))
            vals = {route(a, b, k, prefix) for route in
                    (coset_moment, sweep_coset_moment, enumerated_coset_moment)}
            assert len(vals) == 1

    def test_law_of_total_expectation(self):
        rng = random.Random(16)
        for _ in range(10):
            n, d = rng.randint(2, 4), rng.randint(1, 2)
            a = random_int_tensor(rng, n, d, -3, 3)
            b = random_int_tensor(rng, n, d, -3, 3)
            t = rng.randint(0, n - 1)
            prefix = PartialAssignment(tuple(zip(
                rng.sample(range(n), t), rng.sample(range(n), t))))
            parent = coset_moment(a, b, 1, prefix)
            free_pos = min(set(range(n)) - set(prefix.positions))
            children = [coset_moment(a, b, 1, prefix.extended(free_pos, j))
                        for j in range(n) if j not in prefix.images]
            assert sum(children, Fraction(0)) / len(children) == parent

    def test_rational_tensors(self):
        rng = random.Random(17)
        a = random_rational_tensor(rng, 3, 1)
        b = random_rational_tensor(rng, 3, 1)
        prefix = PartialAssignment(((1, 2),))
        assert coset_moment(a, b, 2, prefix) == \
            brute_coset_average(a, b, 2, prefix)

    @pytest.mark.parametrize("tier", ["integer", "rational"])
    def test_relabelled_sweep_matches_enumeration(self, monkeypatch, tier):
        # the sweep route takes the prefix's positions and images as
        # pins where they stand; the prefixes here are unsorted and away
        # from 0..T-1, short, one short of full, and full
        monkeypatch.setattr(assign, "_enumeration_cheaper", lambda *args: False)
        rng = random.Random(f"relabel-{tier}")

        def tensor(n, d):
            if tier == "integer":
                return random_int_tensor(rng, n, d, -3, 3)
            top = 10 ** 12
            return DenseTensor.from_entries(n, d, [
                Fraction(rng.randint(-top, top), rng.randint(1, top))
                for _ in range(n ** d)])

        def shuffled(n, t):
            while True:
                vals = rng.sample(range(n), t)
                if vals != list(range(t)) and (t == 1 or vals != sorted(vals)):
                    return vals

        for n, d, k in ((5, 2, 1), (4, 2, 2), (5, 3, 1)):
            a, b = tensor(n, d), tensor(n, d)
            for t in (1, n - 1, n):
                prefix = PartialAssignment(tuple(zip(shuffled(n, t),
                                                     shuffled(n, t))))
                assert coset_moment(a, b, k, prefix) == \
                    enumerated_coset_moment(a, b, k, prefix)


def _oracle_pair(shape):
    """The benchmark-sized pairs of ``TestPinnedOracle``: a dense d = 2,
    n = 11 pair, or the adjacency tensors of two random hypergraphs."""
    rng = random.Random(shape)
    if shape == "dense-2-11":
        return (random_int_tensor(rng, 11, 2, -9, 9),
                random_int_tensor(rng, 11, 2, -9, 9))
    n, d, edges = {"hyper-2-14": (14, 2, 21), "hyper-3-9": (9, 3, 13)}[shape]
    pool = list(itertools.combinations(range(n), d))
    return tuple(hypergraph.adjacency_tensor(hypergraph.Hypergraph.from_edges(
        n, d, rng.sample(pool, edges)), role) for role in ("source", "target"))


class TestPinnedOracle:
    """Pinned cosets at sizes brute force cannot reach, against the
    pinned partition expansion in ``tests/helpers``."""

    @pytest.mark.parametrize("shape", ["dense-2-11", "hyper-2-14", "hyper-3-9"])
    def test_coset_moment_matches(self, monkeypatch, shape):
        routes = []
        sweep = _typesweep.PinnedScorer.scores
        enum = assign._enumerate_coset_power_sums
        monkeypatch.setattr(_typesweep.PinnedScorer, "scores",
                            lambda *a: routes.append("sweep") or sweep(*a))
        monkeypatch.setattr(assign, "_enumerate_coset_power_sums",
                            lambda *a: routes.append("enumerate") or enum(*a))
        a, b = _oracle_pair(shape)
        rng = random.Random(f"prefix-{shape}")
        # under the measured costs, enumerating these cosets costs less
        # than building and running a sweep
        enumerated = {("dense-2-11", 4), ("hyper-3-9", 2), ("hyper-3-9", 4)}
        for size in (1, 2, 4):
            prefix = PartialAssignment(tuple(zip(rng.sample(range(a.n), size),
                                                 rng.sample(range(a.n), size))))
            routes.clear()
            oracle = pinned_coset_moment(a, b, 1, prefix)
            assert coset_moment(a, b, 1, prefix) == oracle
            if (shape, size) not in enumerated:
                assert routes == ["sweep"]
                continue
            assert routes == ["enumerate"]
            # the sweep of the same coset, against the same oracle
            with monkeypatch.context() as patch:
                patch.setattr(assign, "_enumeration_cheaper", lambda *args: False)
                assert coset_moment(a, b, 1, prefix) == oracle
            assert routes == ["enumerate", "sweep"]

    def test_oracle_matches_brute_force(self):
        rng = random.Random(1601)
        for n, d, k in ((4, 1, 2), (4, 2, 1), (4, 3, 1), (5, 2, 1)):
            a = random_rational_tensor(rng, n, d)
            b = random_int_tensor(rng, n, d, -3, 3)
            for size in range(n + 1):
                prefix = PartialAssignment(tuple(zip(rng.sample(range(n), size),
                                                     rng.sample(range(n), size))))
                assert pinned_coset_moment(a, b, k, prefix) == \
                    brute_coset_average(a, b, k, prefix)

    def test_greedy_first_image_is_oracle_argmax(self):
        a, b = _oracle_pair("hyper-2-14")
        vals = {c: pinned_coset_moment(a, b, 1, PartialAssignment(((0, c),)))
                for c in range(a.n)}
        best = max(vals.values())
        assert len(set(vals.values())) > 1
        assert greedy_extract(a, b, 1).permutation.images[0] == \
            min(c for c, v in vals.items() if v == best)


def _dense_n5_pair():
    """A dense d = 2, n = 5 pair with no zero entry: nnz(A) = 25, so a
    greedy extraction's first step needs 5 * 4! * 25 = 3000 evaluations
    against the sweep's 25**2 = 625 rows at k = 1."""
    rng = random.Random(1031)
    return tuple(DenseTensor.from_entries(5, 2, [
        rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(25)])
        for _ in range(2))


def _route_spy(monkeypatch) -> list:
    """The routes of the pinned steps run from here on, in order."""
    routes = []
    sweep = _typesweep.PinnedScorer.scores
    enum = assign._enumerate_coset_power_sums
    monkeypatch.setattr(_typesweep.PinnedScorer, "scores",
                        lambda *a: routes.append("sweep") or sweep(*a))
    monkeypatch.setattr(assign, "_enumerate_coset_power_sums",
                        lambda *a: routes.append("enumerate") or enum(*a))
    return routes


class TestGreedyExtract:
    def test_k_below_one_refused(self):
        a = DenseTensor.from_entries(2, 1, [1, 0])
        with pytest.raises(ValueError, match="k must be"):
            greedy_extract(a, a, 0)

    def test_two_point_example(self):
        a = DenseTensor.from_entries(2, 1, [1, 0])
        result = greedy_extract(a, a, 1)
        assert result.permutation.images == (0, 1)
        assert result.value == 1
        assert result.abs_value == 1.0

    def test_constant_tensor_ties_to_identity(self):
        a = DenseTensor.from_entries(3, 1, [2, 2, 2])
        result = greedy_extract(a, a, 1)
        assert result.permutation.images == (0, 1, 2)

    def test_guarantee_and_optimality_bracket(self):
        rng = random.Random(18)
        for _ in range(25):
            n, d = rng.randint(2, 5), rng.randint(1, 2)
            k = rng.randint(1, 2)
            a = random_int_tensor(rng, n, d, 0, 1)
            b = random_int_tensor(rng, n, d, 0, 1)
            result = greedy_extract(a, b, k)
            mom = moment_2k(a, b, k)
            best = brute_max(a, b).abs_value
            assert result.value ** (2 * k) >= mom
            assert abs(result.value) <= best

    def test_monotone_coset_selection(self):
        rng = random.Random(19)
        for _ in range(10):
            n, d, k = rng.randint(2, 4), rng.randint(1, 2), 1
            a = random_int_tensor(rng, n, d, -3, 3)
            b = random_int_tensor(rng, n, d, -3, 3)
            g = greedy_extract(a, b, k).permutation
            prev = moment_2k(a, b, k)
            prefix = PartialAssignment.empty()
            for i in range(n):
                prefix = prefix.extended(i, g.images[i])
                cur = coset_moment(a, b, k, prefix)
                assert cur >= prev
                prev = cur

    def test_greedy_matches_stepwise_argmax(self):
        # the chosen image at each step maximises the coset moment,
        # smallest image on ties
        rng = random.Random(20)
        for _ in range(8):
            n, d, k = rng.randint(2, 4), rng.randint(1, 2), 1
            a = random_int_tensor(rng, n, d, -2, 2)
            b = random_int_tensor(rng, n, d, -2, 2)
            g = greedy_extract(a, b, k).permutation
            prefix = PartialAssignment.empty()
            for i in range(n):
                used = set(prefix.images)
                vals = {j: coset_moment(a, b, k, prefix.extended(i, j))
                        for j in range(n) if j not in used}
                best = max(vals.values())
                expected = min(j for j, v in vals.items() if v == best)
                assert g.images[i] == expected
                prefix = prefix.extended(i, g.images[i])

    def test_enumeration_refused_over_budget(self):
        # the sweep's 625 rows lose the route choice to the enumeration
        # of the first step's 3000 evaluations, and take the step when
        # only they fit: it is refused below both
        a, b = _dense_n5_pair()
        with pytest.raises(BudgetError) as exc:
            greedy_extract(a, b, 1, visit_budget=624)
        assert (exc.value.required, exc.value.budget) == (625, 624)
        assert str(exc.value) == (
            "pinned step needs 3000 coset evaluations or 625 sweep rows "
            "(n=5, d=2, 2k=2), budget is 624")
        greedy_extract(a, b, 1, visit_budget=3000)
        # one coset of 4! permutations
        prefix = PartialAssignment(((0, 2),))
        with pytest.raises(BudgetError) as exc:
            coset_moment(a, b, 1, prefix, visit_budget=599)
        assert exc.value.required == 600
        assert coset_moment(a, b, 1, prefix, visit_budget=600) == \
            enumerated_coset_moment(a, b, 1, prefix)

    def test_greedy_sweep_regime_matches_enumeration_argmax(self):
        # n=8, d=1 puts early steps in the vectorised-sweep regime;
        # verify the choices against enumerated coset averages
        rng = random.Random(22)
        a = random_int_tensor(rng, 8, 1, -3, 3)
        b = random_int_tensor(rng, 8, 1, -3, 3)
        g = greedy_extract(a, b, 1).permutation
        prefix = PartialAssignment.empty()
        for i in range(8):
            used = set(prefix.images)
            vals = {j: enumerated_coset_moment(a, b, 1, prefix.extended(i, j))
                    for j in range(8) if j not in used}
            best = max(vals.values())
            expected = min(j for j, v in vals.items() if v == best)
            assert g.images[i] == expected
            prefix = prefix.extended(i, g.images[i])


class TestPinnedRefusal:
    """A pinned d >= 2 step takes the other exact route when the one
    ``_enumeration_cheaper`` picks is over the budget, and is refused
    only when both are, ``required`` the smaller count: the least budget
    that serves the step."""

    @staticmethod
    def _least_budget(call, budget: int) -> BudgetError:
        """The refusal of ``call`` at ``budget``, once its ``required``
        is seen to serve the call and one less not to."""
        with pytest.raises(BudgetError) as exc:
            call(budget)
        required = exc.value.required
        call(required)
        with pytest.raises(BudgetError) as below:
            call(required - 1)
        assert below.value.required == required
        return exc.value

    def test_sparse_coset_enumerates_under_the_sweep_rows(self, monkeypatch):
        # n = 9, d = 2, k = 2 and one pin: 8! * 20 = 806,400 evaluations
        # against 37**4 = 1,874,161 rows.  Under the measured costs a
        # sweep row costs more than an evaluation, so no step prefers the
        # sweep with fewer evaluations than rows, and this coset
        # enumerates at the default budget (``TestRouteCosts``).  A rule
        # that prefers the sweep is patched in, so that the budget below
        # the rows still reaches the fallback to the enumeration
        monkeypatch.setattr(assign, "_enumeration_cheaper", lambda *args: False)
        rng = random.Random(925)
        a = TestManyPinSweep._sparse(rng, 9, 2, 20)
        b = TestManyPinSweep._sparse(rng, 9, 2, 37)
        k, prefix = 2, PartialAssignment(((4, 1),))
        routes = _route_spy(monkeypatch)
        swept = coset_moment(a, b, k, prefix)
        assert routes == ["sweep"]
        enumerated = coset_moment(a, b, k, prefix, visit_budget=806_400)
        assert routes == ["sweep", "enumerate"]
        assert swept == enumerated == \
            TestManyPinSweep._completions_average(a, b, k, prefix) != 0
        exc = self._least_budget(
            lambda budget: coset_moment(a, b, k, prefix, budget), 806_399)
        assert (exc.required, exc.budget) == (806_400, 806_399)

    def test_dense_greedy_sweeps_under_the_enumeration(self, monkeypatch):
        # the first step's 3000 evaluations against 625 rows: at 625 and
        # 2999 the step sweeps, and the extraction is the same
        a, b = _dense_n5_pair()
        routes = _route_spy(monkeypatch)
        result = greedy_extract(a, b, 1, visit_budget=3000)
        assert routes[0] == "enumerate"
        for budget in (625, 2999):
            routes.clear()
            assert greedy_extract(a, b, 1, visit_budget=budget) == result
            assert routes[0] == "sweep"
        exc = self._least_budget(
            lambda budget: greedy_extract(a, b, 1, budget), 624)
        assert (exc.required, exc.budget) == (625, 624)


class TestRouteCosts:
    """A pinned step takes the route of the smaller measured cost: an
    enumeration per evaluation against a sweep step's fixed cost and its
    cost per row, the build included until the rows are built."""

    def test_sparse_cosets_enumerate_at_the_default_budget(self, monkeypatch):
        # two cosets that the rule max(200_000, rows // 4) sent to sweeps
        # of about 0.8 s and 2 s, where their enumerations take 0.02 s:
        # n = 9, one pin, 8! * 20 = 806,400 evaluations against
        # 37**4 = 1,874,161 rows; n = 10, two pins, 8! * 40 = 1,612,800
        # evaluations against 40**4 = 2,560,000 rows
        rng = random.Random(925)
        sparse = TestManyPinSweep._sparse
        nine = (sparse(rng, 9, 2, 20), sparse(rng, 9, 2, 37),
                PartialAssignment(((4, 1),)), 806_400, 1_874_161)
        rng = random.Random(1040)
        ten = (sparse(rng, 10, 2, 40), sparse(rng, 10, 2, 40),
               PartialAssignment(((2, 5), (7, 0))), 1_612_800, 2_560_000)
        routes = _route_spy(monkeypatch)
        for a, b, prefix, evaluations, rows in (nine, ten):
            nnz = [sum(1 for v in x.entries if v) for x in (a, b)]
            assert math.factorial(a.n - len(prefix)) * nnz[0] == evaluations
            assert max(nnz) ** 4 == rows
            routes.clear()
            assert coset_moment(a, b, 2, prefix) == \
                TestManyPinSweep._completions_average(a, b, 2, prefix) != 0
            assert routes == ["enumerate"]

    def test_kept_enumeration_ends_the_extraction(self):
        # a kept enumeration of the whole parent is weighed against the
        # sweep of this step and the later ones up to the cheapest later
        # enumeration; each later parent is a factor smaller
        rows, l = 1000, 4
        step = assign._STEP_NS + assign._ROW_NS * l * rows
        alone = int(step / assign._ENUM_NS)
        assert assign._enumeration_cheaper(alone, rows, l, True)
        assert not assign._enumeration_cheaper(alone + 1, rows, l, True)
        # unbuilt rows add their build to the sweep
        assert assign._enumeration_cheaper(alone + 1, rows, l, False)
        # a later whole-parent enumeration of 10 evaluations after this
        # step's sweep
        assert assign._enumeration_cheaper(alone + 10, rows, l, True, [10])
        assert not assign._enumeration_cheaper(alone + 11, rows, l, True, [10])
        # or after one more sweep step, where it is cheaper still
        later = [10 ** 9, 10]
        assert assign._enumeration_cheaper(2 * alone + 10, rows, l, True, later)
        assert not assign._enumeration_cheaper(2 * alone + 12, rows, l, True, later)


def _boundary_top(count: int) -> int:
    """The largest t with count * t**2 <= 2**63 - 1."""
    return math.isqrt((2 ** 63 - 1) // count)


class TestResidueBoundaries:
    """Both pinned routes are exact at the edges of their moduli: one
    modulus 2**64 while the bound on what a step reads out is at most
    2**63 - 1, primes from 2**63 on, a score whose residue modulo the
    first prime is 0, and cleared rational entries near 10**13."""

    @staticmethod
    def _step_sums(a, b, k, enumerate_cosets, monkeypatch, pairs=(), pos=0):
        """One pinned step's (sums, denominator, moduli) by one route."""
        primes = []
        for_bound = _residue.Moduli.for_bound

        def spy(bound):
            moduli = for_bound(bound)
            primes.append(moduli.primes)
            return moduli

        with monkeypatch.context() as patch:
            patch.setattr(_residue.Moduli, "for_bound", staticmethod(spy))
            patch.setattr(assign, "_enumeration_cheaper",
                          lambda *args: enumerate_cosets)
            used = {q for _, q in pairs}
            cands = [c for c in range(a.n) if c not in used]
            sums, den = assign._pinned_scorer(a, b, 2 * k, 10 ** 8)(
                pairs, pos, cands)
        return sums, den, primes[-1]

    def test_primes_are_the_largest_below_two_to_the_31(self):
        # the window holds the 16 listed primes and those found past them
        window = range(2 ** 31 - 600, 2 ** 31)
        primes = [p for p in window
                  if all(p % q for q in range(2, math.isqrt(p) + 1))]
        assert len(primes) > 16
        assert [_residue._prime(i) for i in range(len(primes))] == primes[::-1]

    def test_limbs_rebuild_their_values(self):
        # the last limb is signed and within 2**22, the others in 0..2**22 - 1
        rng = random.Random(22)
        cases = [0, 1, -1, 2 ** 22 - 1, 2 ** 22, -2 ** 22, 2 ** 44, -2 ** 44,
                 -2 ** 44 - 1, *(rng.randint(-2 ** 300, 2 ** 300) for _ in range(5))]
        for values in ([0], cases[:9], cases):
            limbs = _residue._limbs(values)
            assert np.abs(limbs).max() <= 2 ** 22 and (limbs[:-1] >= 0).all()
            assert [sum(int(x) << 22 * k for k, x in enumerate(col))
                    for col in limbs.T] == values

    def test_moduli_at_int64_max(self):
        one = _residue.Moduli.for_bound(2 ** 63 - 1)
        several = _residue.Moduli.for_bound(2 ** 63)
        assert one.primes == () and one.size == 1
        assert len(several.primes) == several.size == 3
        assert math.prod(several.primes[:2]) < 2 ** 63 < math.prod(several.primes)
        for moduli, top in ((one, 2 ** 63 - 1), (several, 2 ** 63)):
            values = [0, 1, 2 ** 31 - 1, top - 1, top]
            assert moduli.values(moduli.of(values)) == values
            # products and differences wrap or reduce, the values do not
            half = moduli.of([top // 2])
            assert moduli.values(moduli.sub(moduli.mul(half, moduli.of([2])),
                                            moduli.of([top % 2]))) == \
                [top - 2 * (top % 2)]

    @pytest.mark.parametrize("above", [False, True], ids=["at", "above"])
    @pytest.mark.parametrize("enumerate_cosets", [False, True],
                             ids=["sweep", "enumerate"])
    def test_bound_at_int64_max(self, monkeypatch, above, enumerate_cosets):
        # n = 4, d = 2, k = 1 with A's 16 entries +-1 and B's +-t: every
        # |f| is at most 16 t, so the sweep's scores are at most
        # perm(4, 4) * (16 t)**2 and an enumerated child's sum at most
        # N! * (16 t)**2, N its free coordinates.  The largest t within
        # 2**63 - 1 takes the one modulus, whose products wrap on the
        # way, and t + 1 takes primes
        n, d, k = 4, 2, 1
        rng = random.Random(f"boundary-{above}-{enumerate_cosets}")
        for pairs, pos in (((), 0), (((0, 2),), 1)):
            free = n - len(pairs) - 1
            count = 256 * (math.factorial(free) if enumerate_cosets else 24)
            t = _boundary_top(count) + above
            assert (count * t ** 2 > 2 ** 63 - 1) == above
            # equal signs first: f = 16 t everywhere, the largest sums
            for signs in ((1,), (-1, 1)):
                a = DenseTensor.from_entries(n, d, [rng.choice(signs)
                                                    for _ in range(n ** d)])
                b = DenseTensor.from_entries(n, d, [rng.choice(signs) * t
                                                    for _ in range(n ** d)])
                sums, den, primes = self._step_sums(
                    a, b, k, enumerate_cosets, monkeypatch, pairs, pos)
                assert bool(primes) == above
                for c, score in sums.items():
                    prefix = PartialAssignment(pairs + ((pos, c),))
                    assert Fraction(score, den) == \
                        brute_coset_average(a, b, k, prefix)
                if signs == (1,):  # within a factor 12 of the bound
                    assert 12 * max(sums.values()) >= count * t ** 2

    @pytest.mark.parametrize("enumerate_cosets", [False, True],
                             ids=["sweep", "enumerate"])
    def test_score_zero_modulo_the_first_prime(self, monkeypatch,
                                               enumerate_cosets):
        # B = p * B' with p the first prime makes every f a multiple of p,
        # so every score is 0 modulo p and rebuilt from the other primes
        p = _residue._prime(0)
        assert p == 2 ** 31 - 1
        rng = random.Random(2031)
        n, d, k = 5, 2, 1
        a = random_int_tensor(rng, n, d, -3, 3)
        b = DenseTensor.from_entries(n, d, [p * rng.randint(-3, 3)
                                            for _ in range(n ** d)])
        for pairs, pos in (((), 0), (((0, 3), (1, 1)), 2)):
            sums, den, primes = self._step_sums(a, b, k, enumerate_cosets,
                                                monkeypatch, pairs, pos)
            assert primes[0] == p
            for c, score in sums.items():
                assert score % p == 0 and score != 0
                prefix = PartialAssignment(pairs + ((pos, c),))
                assert Fraction(score, den) == brute_coset_average(a, b, k, prefix)

    @pytest.mark.parametrize("n,k", [(5, 2), (6, 1), (7, 1)])
    @pytest.mark.parametrize("enumerate_cosets", [False, True],
                             ids=["sweep", "enumerate"])
    def test_rational_entries_near_ten_to_the_thirteen(self, monkeypatch, n, k,
                                                       enumerate_cosets):
        # numerators within 10**13 +- 1000 over denominators 1..4: cleared
        # entries near 1.2e14, f beyond int64, several primes on both routes
        monkeypatch.setattr(assign, "_enumeration_cheaper",
                            lambda *args: enumerate_cosets)
        routes = _route_spy(monkeypatch)
        rng = random.Random(f"rational-{n}-{k}")

        def tensor():
            return DenseTensor.from_entries(n, 2, [Fraction(
                rng.choice((-1, 1)) * rng.randint(10 ** 13 - 1000, 10 ** 13 + 1000),
                rng.randint(1, 4)) for _ in range(n * n)])

        a, b = tensor(), tensor()
        for size in (n - 4, n - 3):
            prefix = PartialAssignment(tuple(zip(rng.sample(range(n), size),
                                                 rng.sample(range(n), size))))
            got = coset_moment(a, b, k, prefix)
            assert got == brute_coset_average(a, b, k, prefix)
            if k == 1:  # the expansion's Python-int einsums take seconds at k = 2
                assert got == pinned_coset_moment(a, b, k, prefix)
        assert set(routes) == {"enumerate" if enumerate_cosets else "sweep"}
        if k == 2:  # sweeping every greedy step of 25**4 rows takes seconds
            return
        result = greedy_extract(a, b, k)
        assert result.value == matrix_element(a, b, result.permutation)
        assert result.value ** (2 * k) >= moment_2k(a, b, k)


class TestBruteMax:
    def test_two_point(self):
        a = DenseTensor.from_entries(2, 1, [1, 0])
        result = brute_max(a, a)
        assert result.permutation.images == (0, 1)
        assert result.abs_value == 1

    def test_zero_tensor_tie_breaks_to_identity(self):
        a = DenseTensor.zeros(3, 1)
        result = brute_max(a, a)
        assert result.abs_value == 0
        assert result.permutation.images == (0, 1, 2)

    def test_dominates_identity(self):
        rng = random.Random(21)
        for _ in range(10):
            n, d = rng.randint(2, 4), rng.randint(1, 2)
            a = random_rational_tensor(rng, n, d)
            b = random_rational_tensor(rng, n, d)
            assert brute_max(a, b).abs_value >= \
                abs(matrix_element(a, b, identity(n)))

    def test_cap(self):
        a = DenseTensor.zeros(12, 1)
        with pytest.raises(ValueError):
            brute_max(a, a)

    def test_matches_loop_oracle(self):
        rng = random.Random(24)
        for d, top_n in ((1, 6), (2, 5), (3, 4)):
            for _ in range(12):
                n = rng.randint(1, top_n)
                make = rng.choice((random_int_tensor, random_rational_tensor))
                a, b = make(rng, n, d), make(rng, n, d)
                assert repr(brute_max(a, b)) == repr(loop_brute_max(a, b))

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("one_row_blocks", [False, True])
    def test_all_equal_and_all_zero_tie_to_identity(self, monkeypatch, d,
                                                    one_row_blocks):
        # the first maximum wins within a block and across blocks
        if one_row_blocks:
            monkeypatch.setattr(assign, "_CHUNK_SIZE", 1)
        for n in range(1, 5):
            a = DenseTensor.from_entries(n, d, [Fraction(-3, 2)] * n ** d)
            b = DenseTensor.from_entries(n, d, [7] * n ** d)
            zero = DenseTensor.zeros(n, d)
            for x, y, best in ((a, b, Fraction(21 * n ** d, 2)),
                               (zero, b, 0), (a, zero, 0)):
                result = brute_max(x, y)
                assert result.permutation == identity(n)
                assert result.abs_value == best

    @pytest.mark.parametrize("n,d", [(3, 2)])
    @pytest.mark.parametrize("case,dtype", [("at", np.int64), ("above", object)])
    def test_int64_bound(self, monkeypatch, n, d, case, dtype):
        # as for the coset enumeration: f is int64 while
        # nnz * max|a| * max|b| <= 2**63 - 1, Python ints beyond (d >= 2
        # only: at d = 1 nothing is enumerated)
        nnz, top_a = min(7, n ** d), 7 * 73 * 127
        top_b = (2 ** 63 - 1) // (nnz * top_a) + (case == "above")
        assert (nnz * top_a * top_b <= 2 ** 63 - 1) == (case == "at")
        rng = random.Random(n)
        flat_a = ([rng.choice((-1, 1)) * top_a for _ in range(nnz)]
                  + [0] * (n ** d - nnz))
        flat_b = [rng.choice((-1, 1)) * top_b for _ in range(n ** d)]
        a = DenseTensor.from_entries(n, d, flat_a)
        b = DenseTensor.from_entries(n, d, flat_b)
        seen = []
        values = assign._coset_values

        def spy(*args):
            for img, f in values(*args):
                seen.append(f.dtype)
                yield img, f

        monkeypatch.setattr(assign, "_coset_values", spy)
        assert repr(brute_max(a, b)) == repr(loop_brute_max(a, b))
        assert seen and set(seen) == {np.dtype(dtype)}

    def test_linear_matches_loop_oracle_on_ternary_vectors(self):
        # every pair of vectors over {-1, 0, 1}: ties, zeros, and maxima
        # reached only by min f
        for n in range(1, 5):
            for x in itertools.product((-1, 0, 1), repeat=n):
                a = DenseTensor.from_entries(n, 1, x)
                for y in itertools.product((-1, 0, 1), repeat=n):
                    b = DenseTensor.from_entries(n, 1, y)
                    assert repr(brute_max(a, b)) == repr(loop_brute_max(a, b))

    def test_linear_matches_loop_oracle_on_rationals(self):
        rng = random.Random(25)
        for n in [*range(1, 8), *range(1, 8), 8]:
            # few distinct values, so that many permutations tie
            pool = [Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                    for _ in range(rng.randint(1, 4))]
            a = DenseTensor.from_entries(n, 1, [rng.choice(pool) for _ in range(n)])
            b = random_rational_tensor(rng, n, 1)
            assert repr(brute_max(a, b)) == repr(loop_brute_max(a, b))

    def test_linear_at_the_cap(self):
        # n = 9 with entries near 10**12 against a plain integer loop over
        # itertools.permutations; n = 10 is refused
        rng = random.Random(26)
        xs = [rng.randint(10 ** 12 - 5, 10 ** 12 + 5) * rng.choice((-1, 1))
              for _ in range(9)]
        ys = [rng.randint(10 ** 12 - 5, 10 ** 12 + 5) * rng.choice((-1, 1))
              for _ in range(9)]
        best = best_g = None
        for images in itertools.permutations(range(9)):
            f = abs(sum(x * ys[j] for x, j in zip(xs, images)))
            if best is None or f > best:
                best, best_g = f, images
        result = brute_max(DenseTensor.from_entries(9, 1, xs),
                           DenseTensor.from_entries(9, 1, ys))
        assert result == (Permutation(best_g), best)
        with pytest.raises(ValueError):
            brute_max(DenseTensor.zeros(10, 1), DenseTensor.zeros(10, 1))


@st.composite
def small_tensor_pair(draw):
    n = draw(st.integers(2, 3))
    d = draw(st.integers(1, 2))
    ents = st.integers(-3, 3)
    a = draw(st.lists(ents, min_size=n ** d, max_size=n ** d))
    b = draw(st.lists(ents, min_size=n ** d, max_size=n ** d))
    return (DenseTensor.from_entries(n, d, a),
            DenseTensor.from_entries(n, d, b))


@settings(max_examples=40, deadline=None)
@given(small_tensor_pair(), st.integers(1, 2))
def test_moment_oracle_property(pair, k):
    a, b = pair
    assert moment_2k(a, b, k) == brute_group_moment(a, b, k)
