import itertools
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (brute_coset_average, brute_group_moment,
                     enumerated_coset_moment,
                     loop_brute_max, loop_coset_power_sums,
                     random_int_tensor, random_permutation,
                     random_rational_tensor, sweep_coset_moment)
from orbitmax import _contract, _typesweep, assign
from orbitmax.assign import (DenseTensor, PartialAssignment, Permutation,
                             brute_max, coset_moment, greedy_extract,
                             index_type, matrix_element, moment_2k,
                             sup_bounds)
from orbitmax.errors import BudgetError


class TestTypes:
    def test_tensor_entry_count_checked(self):
        with pytest.raises(ValueError):
            DenseTensor(2, 2, (Fraction(1),) * 3)

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
        assert (g * g.inverse()).images == (0, 1, 2)

    def test_tensor_json_round_trip(self):
        rng = random.Random(0)
        t = random_rational_tensor(rng, 3, 2)
        assert assign.tensor_from_json(assign.tensor_to_json(t)) == t

    def test_permutation_json_round_trip(self):
        g = Permutation((2, 0, 1))
        assert assign.permutation_from_json(assign.permutation_to_json(g)) == g

    def test_tensor_json_duplicate_index_rejected(self):
        obj = {"n": 2, "d": 1,
               "entries": [{"index": [1], "value": "1/1"},
                           {"index": [1], "value": "2/1"}]}
        with pytest.raises(ValueError):
            assign.tensor_from_json(obj)


class TestIndexType:
    def test_all_equal(self):
        assert index_type((3, 3, 3)) == ((0, 1, 2),)

    def test_mixed(self):
        # 0-based positions; values (1,2,1,3) group positions {0,2},{1},{3}
        assert index_type((1, 2, 1, 3)) == ((0, 2), (1,), (3,))

    def test_invariant_under_value_relabelling(self):
        rng = random.Random(9)
        for _ in range(50):
            n = rng.randint(2, 5)
            seq = [rng.randrange(n) for _ in range(rng.randint(1, 7))]
            g = random_permutation(rng, n)
            relabelled = [g.images[v] for v in seq]
            assert index_type(seq) == index_type(relabelled)

    def test_range_check(self):
        with pytest.raises(ValueError):
            index_type((0, 3), n=3)


class TestApplyPerm:
    def test_identity(self):
        rng = random.Random(1)
        x = random_rational_tensor(rng, 3, 2)
        assert assign.apply_perm(Permutation.identity(3), x) == x

    def test_swap_vector(self):
        x = DenseTensor.from_entries(2, 1, [1, 0])
        g = Permutation((1, 0))
        assert assign.apply_perm(g, x).entries == (Fraction(0), Fraction(1))

    def test_composition_action(self):
        rng = random.Random(2)
        for _ in range(20):
            n, d = rng.randint(2, 4), rng.randint(1, 2)
            x = random_int_tensor(rng, n, d, -3, 3)
            g = random_permutation(rng, n)
            h = random_permutation(rng, n)
            assert assign.apply_perm(g * h, x) == \
                assign.apply_perm(g, assign.apply_perm(h, x))

    def test_defining_property(self):
        rng = random.Random(3)
        n, d = 3, 2
        x = random_int_tensor(rng, n, d, -3, 3)
        g = random_permutation(rng, n)
        gx = assign.apply_perm(g, x)
        for idx in itertools.product(range(n), repeat=d):
            assert gx.get(g.apply_index(idx)) == x.get(idx)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            assign.apply_perm(Permutation.identity(2),
                              DenseTensor.zeros(3, 1))


class TestMatrixElement:
    def test_identity_gives_inner_product(self):
        rng = random.Random(4)
        a = random_rational_tensor(rng, 3, 2)
        b = random_rational_tensor(rng, 3, 2)
        expect = sum((x * y for x, y in zip(a.entries, b.entries)), Fraction(0))
        assert matrix_element(a, b, Permutation.identity(3)) == expect

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
                           Permutation.identity(2))


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
            assert moment_2k(assign.apply_perm(g, a),
                             assign.apply_perm(h, b), 1) == moment_2k(a, b, 1)

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

    @pytest.mark.parametrize("above", [False, True])
    def test_int64_boundary(self, monkeypatch, above):
        # contractions run in int64 while n**F * top**(2k) <= 2**63 - 1,
        # F = min(n, 2kd) the most blocks, and on Python ints above that
        n, d, k = 4, 2, 1
        top = math.isqrt((2 ** 63 - 1) // n ** 4) + above
        assert (n ** 4 * top ** 2 > 2 ** 63 - 1) == above
        seen = []
        side = _contract._Evaluator.side

        def spy(self, tensor):
            seen.append(tensor.dtype)
            return side(self, tensor)

        monkeypatch.setattr(_contract._Evaluator, "side", spy)
        rng = random.Random(1013 + above)
        for _ in range(3):
            a = DenseTensor.from_entries(
                n, d, [rng.choice((top, -top, 0, 1)) for _ in range(n * n)])
            b = DenseTensor.from_entries(
                n, d, [rng.choice((top, -top, 2)) for _ in range(n * n)])
            assert moment_2k(a, b, k) == brute_group_moment(a, b, k)
        assert set(seen) == {np.dtype(object if above else np.int64)}

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
        for d, m in ((2, 1), (2, 2), (3, 2), (2, 4)):
            l = m * d
            plan = _contract._plan(d, m)
            plan.extend(l)
            blocks = _set_partition_blocks(l)
            for r in range(1, l + 1):
                sizes = plan.size[plan.start[r]:plan.start[r + 1]]
                assert sum(sizes) == blocks.count(r) == _stirling2(l, r)
        assert _contract._plan(2, 4).start[-1] == 296
        # plans whose first layers come from multisets of factor words
        for d, m, top in ((2, 6, 4), (3, 4, 3), (2, 12, 2)):
            plan = _contract._plan(d, m)
            plan.extend(top)
            assert plan.words >= top
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

    @pytest.mark.parametrize("words", [1, 2, 3, 5])
    def test_word_and_listed_layers_mix(self, monkeypatch, words):
        # any split of the block counts between multisets of factor words
        # (1..words) and listed partitions gives the same orbits and moments
        monkeypatch.setattr(_contract, "_plans", {})
        monkeypatch.setattr(_contract, "_word_layers",
                            lambda d, m: min(words, m * d))
        rng = random.Random(1018 + words)
        for n, d, k in ((4, 2, 2), (5, 2, 2), (4, 3, 1), (6, 3, 1)):
            a = random_int_tensor(rng, n, d, -3, 3)
            b = random_int_tensor(rng, n, d, -3, 3)
            assert moment_2k(a, b, k) == brute_group_moment(a, b, k)
        plan = _contract._plan(2, 4)
        plan.extend(8)
        assert plan.start[-1] == 296
        for r in range(1, 9):
            assert sum(plan.size[plan.start[r]:plan.start[r + 1]]) == \
                _stirling2(8, r)

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
        for name in ("sweep_rows", "greedy_scores"):
            monkeypatch.setattr(_typesweep, name, refuse)
        monkeypatch.setattr(assign, "_enumerate_coset_power_sums", refuse)
        for (a, b, k), (moment, bounds) in zip(cases, expected):
            assert moment_2k(a, b, k) == moment
            assert sup_bounds(a, b, k) == bounds
            assert coset_moment(a, b, k, PartialAssignment.empty()) == moment
        with pytest.raises(AssertionError):
            sweep_coset_moment(a, b, k, PartialAssignment.empty())


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


def _greedy_scores(flat_a, flat_b, n, d, m, chosen, cands=None,
                   budget=10 ** 8):
    """One greedy sweep step's raw candidate scores, rows built afresh;
    the candidates default to every image not in ``chosen``."""
    if cands is None:
        cands = tuple(c for c in range(n) if c not in chosen)
    return _typesweep.greedy_scores(_typesweep.sweep_rows(flat_a, n, d, m),
                                    _typesweep.sweep_rows(flat_b, n, d, m),
                                    n, d, m, tuple(chosen), cands, budget)


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


class TestKeyRangeGuard:
    """Type keys times pin patterns must fit in int64, or the sweep refuses."""

    def test_coset_moment_refuses_before_sweeping(self, monkeypatch):
        # 8**8 * 30**8 > 2**63: the 900**4 rows are within the budget,
        # so only the key guard stops the sweep of a 29-pin coset
        def unbuilt(*args):
            raise AssertionError("sweep built before the key guard")

        monkeypatch.setattr(assign, "_enumeration_cheaper", lambda *args: False)
        monkeypatch.setattr(_typesweep, "_build_chunk", unbuilt)
        a = DenseTensor.from_entries(30, 2, [1] * 30 ** 2)
        prefix = PartialAssignment(tuple((p, (7 * p + 3) % 30)
                                         for p in range(29, 0, -1)))
        with pytest.raises(BudgetError) as exc:
            coset_moment(a, a, 2, prefix, visit_budget=10 ** 20)
        assert str(exc.value) == (
            "type keys need 11007531417600000000 values (n=30, d=2, 2k=4, "
            "29 pins), int64 holds 9223372036854775807")
        assert exc.value.required == 8 ** 8 * 30 ** 8
        assert exc.value.required > exc.value.budget == 2 ** 63 - 1

    def test_boundary(self):
        # 8**8 * 29**8 < 2**63 <= 8**8 * 30**8
        _typesweep.check_budget(900 ** 4, 30, 2, 4, 10 ** 20, npins=28)
        with pytest.raises(BudgetError):
            _typesweep.check_budget(900 ** 4, 30, 2, 4, 10 ** 20, npins=29)

    def test_candidate_tables_count_the_candidate_pin(self):
        # 28 chosen images and the candidate make 29 pins, as in
        # test_coset_moment_refuses_before_sweeping; no row is built
        def unbuilt():
            raise AssertionError("rows built before the key guard")

        rows = (900 ** 4, unbuilt)
        with pytest.raises(BudgetError) as exc:
            _typesweep.greedy_scores(rows, rows, 30, 2, 4,
                                     tuple(range(28)), (28, 29), 10 ** 20)
        assert exc.value.required == 8 ** 8 * 30 ** 8
        assert exc.value.required > exc.value.budget == 2 ** 63 - 1


# largest entry whose 24 = perm(4, 4) products of two entries still sum
# within int64, at n = 4, d = 2, k = 1
_INT64_TOP = math.isqrt((2 ** 63 - 1) // math.perm(4, 4))


class TestEntryDtypeBoundary:
    """The sweep sums in int64 exactly while perm(n, rmax) * top**(2k)
    fits in int64, and in Python ints above that."""

    @pytest.mark.parametrize("top,dtype", [(_INT64_TOP, np.int64),
                                           (_INT64_TOP + 1, object)])
    @pytest.mark.parametrize("signs", ["equal", "mixed"])
    def test_sweep_matches_brute_force(self, top, dtype, signs):
        n, d, k = 4, 2, 1
        rng = random.Random(top)

        def entries():
            return [top if signs == "equal" or rng.random() < 0.5 else -top
                    for _ in range(n ** d)]

        flat_a, flat_b = entries(), entries()
        assert _typesweep._entry_array(flat_a, n, 4, 2 * k).dtype == dtype
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
            rows_a = _typesweep.sweep_rows(flat_a, n, d, m)
            rows_b = _typesweep.sweep_rows(flat_b, n, d, m)
            order = rng.sample(range(n), n)
            for t in range(1, n + 1):
                chosen = tuple(order[:t - 1])
                cands = tuple(sorted(set(range(n)) - set(chosen)))
                scores = _typesweep.greedy_scores(rows_a, rows_b, n, d, m,
                                                  chosen, cands, 10 ** 8)
                assert sorted(scores) == list(cands)
                free = n - t
                den = math.perm(free, min(m * d, free))
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
        whole = [_greedy_scores(flat_a, flat_b, n, d, m, c) for c in steps]
        monkeypatch.setattr(_typesweep, "CACHE_MAX", 100)
        monkeypatch.setattr(_typesweep, "CHUNK_SIZE", 250)
        count, chunks = _typesweep.sweep_rows(flat_a, n, d, m)
        assert count == sum(1 for v in flat_a if v) ** 2
        assert count % 250 and len(list(chunks())) == count // 250 + 1
        assert [_greedy_scores(flat_a, flat_b, n, d, m, c)
                for c in steps] == whole
        # one candidate of a step, as coset_moment asks, reads the same
        # cells out of the chunks
        for c, scores in zip(steps, whole):
            cand = order[len(c)]
            assert _greedy_scores(flat_a, flat_b, n, d, m, c, (cand,)) == \
                {cand: scores[cand]}

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
        prefix = PartialAssignment(((2, 5), (6, 0)))
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


def _random_pairs(rng, n, size):
    return tuple(zip(rng.sample(range(n), size), rng.sample(range(n), size)))


class TestCosetEnumeration:
    """The numpy coset enumeration against the one-permutation-at-a-time
    loop in ``tests/helpers``, split by the first free position and not."""

    @staticmethod
    def _check(flat_a, flat_b, n, d, m, pairs):
        nz_a = assign._nonzero_digit_entries(flat_a, n, d)
        free = [p for p in range(n) if p not in dict(pairs)]
        for split_pos in [None] + free[:1]:
            got = assign._enumerate_coset_power_sums(nz_a, flat_b, n, d, m,
                                                     pairs, split_pos)
            want = loop_coset_power_sums(nz_a, flat_b, n, d, m, pairs,
                                         split_pos)
            if split_pos is not None:  # images no permutation reaches read 0
                got, want = got.tolist(), [want.get(j, 0) for j in range(n)]
            assert got == want

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
        assert assign._enumerate_coset_power_sums(
            [], flat_b, n, d, 2, ((1, 2),), 0).tolist() == [0, 0, 0, 0]

    @pytest.mark.parametrize("case,dtype", [("at", np.int64), ("above", object)])
    @pytest.mark.parametrize("signs", ["equal", "mixed"])
    def test_int64_bound(self, monkeypatch, case, dtype, signs):
        # nnz * max|a| * max|b| bounds every f and partial sum: f is
        # int64 up to 2**63 - 1 and Python ints beyond
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
            for img, f in values(*args):
                seen.append(f.dtype)
                yield img, f

        monkeypatch.setattr(assign, "_coset_values", spy)
        for pairs in ((), ((2, 0),)):
            self._check(flat_a, flat_b, n, d, 2, pairs)
        assert seen and set(seen) == {np.dtype(dtype)}

    @pytest.mark.parametrize("chunk", [1, 5, 24, 100])
    def test_chunk_boundaries(self, monkeypatch, chunk):
        # rows per block = chunk // max(n, nnz): one row, a few rows, or
        # blocks of 2 or 3! rows with a fixed head of leading values
        monkeypatch.setattr(_typesweep, "CHUNK_SIZE", chunk * 5)
        rng = random.Random(604 + chunk)
        n, d = 5, 1
        flat_a = [rng.randint(-3, 3) or 1 for _ in range(n)]
        flat_b = [rng.randint(-3, 3) for _ in range(n)]
        for size in (0, 1, 2):
            self._check(flat_a, flat_b, n, d, 4, _random_pairs(rng, n, size))

    def test_blocks_follow_itertools_order(self):
        for values, max_rows in (((), 10), ((4,), 1), ((1, 3, 4, 6), 7),
                                 ((0, 2, 5, 6, 8), 0), ((9, 1, 2), 100)):
            rows = np.concatenate(list(_typesweep.permutation_blocks(values, max_rows)))
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
        sweep = _typesweep.greedy_scores
        enum = assign._enumerate_coset_power_sums
        monkeypatch.setattr(_typesweep, "greedy_scores",
                            lambda *a: spy.append("sweep") or sweep(*a))
        monkeypatch.setattr(assign, "_enumerate_coset_power_sums",
                            lambda *a: spy.append("enumerate") or enum(*a))
        a = DenseTensor.from_entries(n, d, [3] * n ** d)
        b = DenseTensor.from_entries(n, d, [Fraction(-1, 2)] * n ** d)
        result = greedy_extract(a, b, 1)
        assert result.permutation == Permutation.identity(n)
        assert set(spy) == {"enumerate" if enumerate_cosets else "sweep"}

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
        for name in ("sweep_rows", "greedy_scores"):
            monkeypatch.setattr(_typesweep, name, refuse)
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
        assert greedy_extract(a, b, 50).permutation == Permutation.identity(1)
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
        # the sweep route moves the prefix to coordinates 0..T-1; the
        # prefixes here are unsorted and away from 0..T-1, short, one
        # short of full, and full
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


class TestGreedyExtract:
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
                abs(matrix_element(a, b, Permutation.identity(n)))

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
            monkeypatch.setattr(_typesweep, "CHUNK_SIZE", 1)
        for n in range(1, 5):
            a = DenseTensor.from_entries(n, d, [Fraction(-3, 2)] * n ** d)
            b = DenseTensor.from_entries(n, d, [7] * n ** d)
            zero = DenseTensor.zeros(n, d)
            for x, y, best in ((a, b, Fraction(21 * n ** d, 2)),
                               (zero, b, 0), (a, zero, 0)):
                result = brute_max(x, y)
                assert result.permutation == Permutation.identity(n)
                assert result.abs_value == best

    @pytest.mark.parametrize("n,d", [(1, 1), (3, 2)])
    @pytest.mark.parametrize("case,dtype", [("at", np.int64), ("above", object)])
    def test_int64_bound(self, monkeypatch, n, d, case, dtype):
        # as for the coset enumeration: f is int64 while
        # nnz * max|a| * max|b| <= 2**63 - 1, Python ints beyond
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
