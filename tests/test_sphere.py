import math
import random
import sys
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from helpers import (leaf_sphere_moment, naive_poly_mul, naive_pow, norm_2k,
                     oracle_monomial_moment, oracle_sphere_moment_2k,
                     random_fraction, random_poly, wallis_circle_average)
from orbitmax import sphere
from orbitmax.bounds import Interval
from orbitmax.errors import BudgetError
from orbitmax.sphere import SparsePoly


def x1_power(n, d, coef=1):
    return SparsePoly.from_terms(n, d, [((d,) + (0,) * (n - 1), coef)])


def _wide_form():
    """1,100 of the 1,830 monomials of degree 59 in 3 variables, with small
    integer coefficients: more terms than Python's default recursion limit."""
    rng = random.Random(1100)
    exps = [(a, b, 59 - a - b) for a in range(60) for b in range(60 - a)][:1100]
    return SparsePoly(3, 59, {e: Fraction(rng.choice((-3, -2, -1, 1, 2, 3)))
                              for e in exps})


class TestBudgetValues:
    # a term budget that is not a non-negative integer is a ValueError
    # before any work, also for the zero polynomial, which needs none
    @pytest.mark.parametrize("budget", [2.5e8, True, "1.5", -1])
    @pytest.mark.parametrize("call", [
        lambda p, v: sphere.moment_2k(p, 2, term_budget=v),
        lambda p, v: norm_2k(p, 2, term_budget=v),
        lambda p, v: sphere.sup_bounds(p, 2, term_budget=v),
        lambda p, v: sphere.fewnomial_sup(p, 0.5, term_budget=v),
        lambda p, v: sphere.system_reduce([p], 2, term_budget=v),
    ], ids=["moment_2k", "norm_2k", "sup_bounds", "fewnomial_sup", "system_reduce"])
    @pytest.mark.parametrize("p", [x1_power(3, 1), SparsePoly.zero(3, 1)],
                             ids=["x1", "zero"])
    def test_refused_as_invalid(self, call, budget, p):
        with pytest.raises(ValueError):
            call(p, budget)

    def test_integer_strings_and_zero(self):
        p = SparsePoly.from_terms(2, 2, [((2, 0), 3), ((1, 1), -1)])
        assert sphere.moment_2k(p, 2, term_budget="10") == sphere.moment_2k(p, 2)
        with pytest.raises(BudgetError) as exc:
            sphere.moment_2k(p, 2, term_budget=0)
        assert exc.value.budget == 0
        assert sphere.moment_2k(SparsePoly.zero(2, 2), 2, term_budget=0) == 0


class TestSparsePoly:
    def test_collects_duplicate_terms(self):
        p = SparsePoly.from_terms(2, 2, [((1, 1), 1), ((1, 1), 1)])
        assert p.terms == {(1, 1): Fraction(2)}

    def test_rejects_mixed_degrees(self):
        with pytest.raises(ValueError):
            SparsePoly.from_terms(2, 2, [((2, 0), 1), ((0, 1), 1)])

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            SparsePoly.from_terms(3, 2, [((2, 0), 1)])

    def test_rejects_negative_exponent(self):
        with pytest.raises(ValueError):
            SparsePoly.from_terms(2, 0, [((-1, 1), 1)])

    @pytest.mark.parametrize("exps", ["20", b"20"])
    def test_string_for_the_exponent_vector_refused(self, exps):
        # refused, not read as the exponents 2 and 0 of its characters
        with pytest.raises(ValueError, match="sequence of integers"):
            SparsePoly.from_terms(2, 2, [(exps, 1)])

    @pytest.mark.parametrize("n, d", [("2", 1), (2.0, 1), (2, True)])
    def test_shape_read_as_json_reads_it(self, n, d):
        # the string "2" is read as 2 by both, a float or a bool by neither
        obj = {"n": n, "d": d, "terms": []}
        if isinstance(n, str):
            p = SparsePoly(n, d)
            assert p == sphere.poly_from_json(obj) and p.n == 2
        else:
            for make in (lambda: SparsePoly.zero(n, d),
                         lambda: sphere.poly_from_json(obj)):
                with pytest.raises(ValueError, match="integer"):
                    make()

    @pytest.mark.parametrize("make, match", [
        (lambda: SparsePoly(0, 1, {}), "n must be"),
        (lambda: SparsePoly(2, 1, {(-1, 2): Fraction(1)}), "negative exponent"),
        (lambda: SparsePoly(2, 1, {(1, 0): Fraction(0)}), "zero coefficients"),
        (lambda: SparsePoly.variable(2, 0) * SparsePoly.variable(3, 0), "product"),
        (lambda: SparsePoly.variable(2, 0) + x1_power(2, 2), "sum"),
        (lambda: SparsePoly.variable(2, 0) + SparsePoly.variable(3, 0), "sum"),
    ])
    def test_constructor_and_arithmetic_guards(self, make, match):
        with pytest.raises(ValueError, match=match):
            make()

    @pytest.mark.parametrize("exps", [(2.5, 0), (2.0, 0), (True, 1), (1, False)])
    def test_rejects_float_and_boolean_exponents(self, exps):
        # refused, not truncated to (2, 0) or read as 1
        with pytest.raises(ValueError):
            SparsePoly.from_terms(2, 2, [(exps, 1)])

    def test_integer_and_string_exponents_load(self):
        p = SparsePoly.from_terms(2, 2, [((2, 0), 1), (("1", " 1 "), 3),
                                         ((np.int64(0), np.int64(2)), -1)])
        assert p.terms == {(2, 0): 1, (1, 1): 3, (0, 2): -1}
        assert all(type(e) is int for exps in p.terms for e in exps)

    # coefficients are read as the JSON readers read them: a float, a bool
    # or a non-numeric string is a ValueError, not a bare AttributeError in
    # moment_2k
    @pytest.mark.parametrize("coef, match", [
        (0.5, "float"), (True, "boolean"), ("half", "Invalid literal")])
    def test_constructor_reads_rational_coefficients(self, coef, match):
        with pytest.raises(ValueError, match=match):
            SparsePoly(2, 1, {(1, 0): coef})

    def test_constructor_reads_rational_strings(self):
        p = SparsePoly(2, 1, {(1, 0): "1/2", (0, 1): 3})
        assert p.terms == {(1, 0): Fraction(1, 2), (0, 1): 3}
        assert all(type(c) is Fraction for c in p.terms.values())
        assert p == SparsePoly.from_terms(2, 1, [((1, 0), "1/2"), ((0, 1), 3)])
        # the average of (x1/2 + 3 x2)**2 over the circle
        assert sphere.moment_2k(p, 1) == Fraction(37, 8)

    def test_zero_poly_accepted(self):
        p = SparsePoly.zero(3, 2)
        assert p.is_zero and p.n == 3 and p.d == 2

    def test_cancellation_collapses_to_zero(self):
        p = SparsePoly.from_terms(2, 1, [((1, 0), 1), ((1, 0), -1)])
        assert p.is_zero

    def test_json_round_trip(self):
        p = SparsePoly.from_terms(
            3, 2, [((2, 0, 0), Fraction(3, 2)), ((1, 1, 0), -1)])
        obj = sphere.poly_to_json(p)
        assert obj["terms"][0]["exps"] <= obj["terms"][1]["exps"]
        assert sphere.poly_from_json(obj) == p


class TestMoment2k:
    def test_coordinate_n3(self):
        assert sphere.moment_2k(SparsePoly.variable(3, 0), 1) == Fraction(1, 3)

    def test_coordinate_circle_k2(self):
        assert sphere.moment_2k(SparsePoly.variable(2, 0), 2) == \
            wallis_circle_average(4, 0)

    def test_zero_poly(self):
        assert sphere.moment_2k(SparsePoly.zero(3, 2), 2) == 0

    def test_k_below_one_refused(self):
        with pytest.raises(ValueError, match="k must be"):
            sphere.moment_2k(SparsePoly.variable(3, 0), 0)

    def test_oracle_equivalence(self):
        # optimized path (multinomial power + shared-denominator integral)
        # against naive expansion + per-monomial integral
        rng = random.Random(23)
        for _ in range(30):
            p = random_poly(rng, rng.randint(1, 4), rng.randint(1, 3), 3)
            k = rng.randint(1, 2)
            assert sphere.moment_2k(p, k) == oracle_sphere_moment_2k(p, k)

    def test_scaling_equivariance(self):
        rng = random.Random(31)
        for _ in range(20):
            p = random_poly(rng, 3, 2, 3)
            c = Fraction(rng.randint(-7, 7), rng.randint(1, 5))
            k = rng.randint(1, 3)
            assert sphere.moment_2k(c * p, k) == c ** (2 * k) * sphere.moment_2k(p, k)

    def test_rotation_invariance_under_coordinate_permutation(self):
        rng = random.Random(37)
        for _ in range(20):
            n = rng.randint(2, 5)
            p = random_poly(rng, n, rng.randint(1, 3), 4)
            sigma = list(range(n))
            rng.shuffle(sigma)
            q = SparsePoly(n, p.d, {tuple(e[sigma.index(j)] for j in range(n)): c
                                    for e, c in p.terms.items()})
            k = rng.randint(1, 2)
            assert sphere.moment_2k(p, k) == sphere.moment_2k(q, k)

    def test_monotone_in_k_exact(self):
        # power-mean inequality at the exact level:
        # m_k^(k+1) <= m_{k+1}^k  <=>  m_k^(1/2k) <= m_{k+1}^(1/(2k+2))
        rng = random.Random(41)
        for _ in range(15):
            p = random_poly(rng, rng.randint(1, 4), rng.randint(1, 3), 3)
            moments = [sphere.moment_2k(p, k) for k in range(1, 5)]
            for k in range(1, 4):
                assert moments[k - 1] ** (k + 1) <= moments[k] ** k

    def test_sum_of_squares_is_one_on_sphere(self):
        for n in (2, 3, 5):
            p = SparsePoly.from_terms(
                n, 2, [(tuple(2 if j == i else 0 for j in range(n)), 1)
                       for i in range(n)])
            for k in (1, 2, 3):
                assert sphere.moment_2k(p, k) == 1


class TestMomentEngine:
    """moment_2k sums the expansion in integers; it must agree exactly
    with the literally expanded power integrated term by term."""

    @pytest.mark.parametrize("n,d,items", [
        (3, 2, [((2, 0, 0), Fraction(1, 6)), ((1, 1, 0), Fraction(-5, 4)),
                ((0, 1, 1), Fraction(7, 9))]),                      # mixed denominators
        (2, 3, [((3, 0), -2), ((1, 2), Fraction(-1, 3)),
                ((2, 1), Fraction(4, 5))]),                          # odd d, negatives
        (1, 3, [((3,), Fraction(-2, 7))]),                           # n = 1
        (4, 3, [((1, 1, 1, 0), Fraction(3, 8))]),                    # single odd term
        (3, 4, [((2, 2, 0), Fraction(-9, 2))]),                      # single even term
        (3, 2, []),                                                  # zero form
    ])
    def test_special_forms(self, n, d, items):
        p = SparsePoly.from_terms(n, d, items)
        for k in (1, 2, 3):
            assert sphere.moment_2k(p, k) == oracle_sphere_moment_2k(p, k)

    def test_random_forms(self):
        rng = random.Random(59)
        for _ in range(150):
            p = random_poly(rng, rng.randint(1, 5), rng.randint(1, 4), 6)
            k = rng.randint(1, 3)
            assert sphere.moment_2k(p, k) == oracle_sphere_moment_2k(p, k)

    def test_two_term_linear_form_at_k_300(self):
        # one line, each term stepped from the one before; the reference
        # distributes p**150 literally and squares it twice, which is
        # quicker than 600 steps
        p = SparsePoly.from_terms(3, 1, [((1, 0, 0), 3), ((0, 0, 1), -2)])
        power = naive_pow(p, 150)
        for _ in range(2):
            power = naive_poly_mul(power, power)
        assert sphere.moment_2k(p, 300) == sum(
            (c * oracle_monomial_moment(e, 3) for e, c in power.items()),
            Fraction(0))

    def test_high_rank_parity_masks(self):
        # a chain x_j x_(j+1): every term has its own odd-exponent mask,
        # so the parity sets of the full span would hold 2**25 masks
        n = 26
        p = SparsePoly.from_terms(
            n, 2, [(tuple(1 if i in (j, j + 1) else 0 for i in range(n)),
                    Fraction(j + 1, j % 3 + 1)) for j in range(n - 1)])
        for k in (1, 2):
            assert sphere.moment_2k(p, k) == oracle_sphere_moment_2k(p, k)

    def test_more_terms_than_the_recursion_limit(self):
        # the walk recurses once per used monomial, not once per term
        p = _wide_form()
        terms = [(e, c.numerator) for e, c in p.terms.items()]
        square: dict = {}
        for i, (e1, c1) in enumerate(terms):
            for j in range(i, len(terms)):
                e2, c2 = terms[j]
                key = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
                square[key] = square.get(key, 0) + (1 if i == j else 2) * c1 * c2
        assert sphere.moment_2k(p, 1) == sum(
            (c * oracle_monomial_moment(e, 3) for e, c in square.items()),
            Fraction(0))

    @pytest.mark.parametrize("n,d,t,k", [
        (4, 2, 3, 80), (6, 4, 3, 62), (3, 4, 3, 58), (6, 3, 3, 58),
        (3, 3, 3, 54), (3, 2, 3, 48), (3, 4, 4, 20), (5, 2, 4, 18),
        (3, 4, 5, 9), (3, 3, 5, 8),
    ])
    def test_benchmark_shapes_match_the_leaf_walk(self, n, d, t, k):
        # the sphere-bounds fewnomial cells with the most compositions:
        # long lines of the last two monomials, several forms each
        rng = random.Random(f"{n} {d} {t} {k}")
        for _ in range(2):
            monos: set = set()
            while len(monos) < t:
                exps = [0] * n
                for _ in range(d):
                    exps[rng.randrange(n)] += 1
                monos.add(tuple(exps))
            p = SparsePoly(n, d, {e: random_fraction(rng, 1, 9, 4) * rng.choice((-1, 1))
                                  for e in sorted(monos)})
            assert sphere.moment_2k(p, k) == leaf_sphere_moment(p, k)

    @pytest.mark.parametrize("n,d,items", [
        # delta_3 = 0: a coordinate the line leaves in place
        (3, 3, [((2, 0, 1), 3), ((0, 2, 1), -1)]),
        (4, 2, [((1, 0, 0, 1), 2), ((0, 1, 0, 1), 5), ((0, 0, 1, 1), -1)]),
        # |delta_j| = d of both signs, and mixed sizes
        (2, 3, [((3, 0), 1), ((0, 3), 2)]),
        (3, 4, [((0, 1, 3), Fraction(1, 2)), ((4, 0, 0), Fraction(-3, 5))]),
        (3, 4, [((1, 1, 2), 1), ((2, 2, 0), 1), ((0, 0, 4), -2)]),
        # odd r_pen is cut: x1 x2 an odd number of times cannot cancel
        (2, 2, [((1, 1), 3), ((2, 0), -1)]),
        (3, 2, [((0, 1, 1), 1), ((1, 1, 0), 2), ((0, 0, 2), 1)]),
        # c_pen**2 / c_last**2 not an integer: mixed denominators and signs
        (2, 2, [((2, 0), Fraction(2, 3)), ((1, 1), Fraction(-5, 7))]),
        (3, 3, [((1, 1, 1), Fraction(-7, 2)), ((3, 0, 0), Fraction(4, 9)),
                ((0, 2, 1), Fraction(5, 6))]),
        # n = 1, and t = 1 in more variables: no line
        (1, 3, [((3,), Fraction(-2, 7))]),
        (3, 4, [((2, 1, 1), Fraction(3, 2))]),
        # t = 3, 4, 5: every walk level steps C(rem, r) c**r up to r = rem - 1
        # and r = rem, with coefficients of +-1, negatives and mixed denominators
        (3, 2, [((2, 0, 0), 1), ((1, 1, 0), -1), ((0, 1, 1), 1)]),
        (3, 3, [((3, 0, 0), Fraction(-2, 3)), ((1, 2, 0), Fraction(5, 4)),
                ((0, 1, 2), -7), ((1, 1, 1), Fraction(1, 6))]),
        (4, 2, [((1, 1, 0, 0), -1), ((0, 0, 1, 1), 1), ((1, 0, 1, 0), Fraction(-5, 3)),
                ((0, 1, 0, 1), Fraction(2, 7))]),
        (2, 4, [((4, 0), -1), ((3, 1), 2), ((2, 2), Fraction(-3, 5)),
                ((1, 3), Fraction(7, 2)), ((0, 4), -1)]),
    ])
    def test_line_edges_match_the_expanded_power(self, n, d, items):
        p = SparsePoly.from_terms(n, d, items)
        for k in (1, 2, 3, 4):
            assert sphere.moment_2k(p, k) == oracle_sphere_moment_2k(p, k) \
                == leaf_sphere_moment(p, k)
        assert sphere.moment_2k(p, 15) == leaf_sphere_moment(p, 15)

    def test_budget_error_fields(self):
        p = SparsePoly.from_terms(4, 2, [((2, 0, 0, 0), 1), ((0, 2, 0, 0), -3),
                                         ((1, 1, 0, 0), 2), ((0, 0, 1, 1), 1)])
        with pytest.raises(BudgetError) as exc:
            sphere.moment_2k(p, 5, term_budget=100)
        required = math.comb(10 + 3, 3)
        assert (exc.value.required, exc.value.budget, exc.value.k) == (required, 100, 5)
        assert str(exc.value) == (f"moment at k=5 needs {required} collected terms "
                                  f"for the 4-term polynomial, budget is 100")

    def test_never_expands_the_power(self):
        # the sphere module has no power expansion left to call: the walk
        # alone gives the moment, and fewnomial_sup is sup_bounds at its k
        p = SparsePoly.from_terms(3, 2, [((2, 0, 0), 1), ((0, 1, 1), Fraction(-1, 2))])
        assert sphere.moment_2k(p, 4) == oracle_sphere_moment_2k(p, 4)
        assert sphere.fewnomial_sup(p, 0.5) == sphere.sup_bounds(
            p, sphere.choose_k(3, 2, 0.5))


class TestNormAndBounds:
    def test_norm_coordinate(self):
        assert norm_2k(SparsePoly.variable(3, 0), 1) == \
            pytest.approx(math.sqrt(1 / 3), rel=1e-15)

    def test_norm_zero(self):
        assert norm_2k(SparsePoly.zero(2, 3), 2) == 0.0

    def test_norm_single_point_sphere(self):
        for d in (1, 3, 6):
            assert norm_2k(x1_power(1, d), 2) == 1.0

    def test_interval_collapses_for_n1(self):
        iv = sphere.sup_bounds(SparsePoly.variable(1, 0), 3)
        assert iv.lower == iv.upper == 1.0

    def test_zero_poly_degenerate(self):
        iv = sphere.sup_bounds(SparsePoly.zero(3, 2), 1)
        assert iv.degenerate and iv.lower == iv.upper == 0.0

    def test_upper_at_least_lower(self):
        rng = random.Random(43)
        for _ in range(20):
            p = random_poly(rng, rng.randint(1, 4), rng.randint(1, 3), 4)
            iv = sphere.sup_bounds(p, rng.randint(1, 3))
            assert iv.lower <= iv.upper
            assert iv.lower_exact <= iv.upper_exact

    def test_float_ends_certified_and_tight(self):
        # each float end is the tightest float whose 2k-th power is on the
        # certified side of the exact end
        rng = random.Random(67)
        for _ in range(40):
            p = random_poly(rng, rng.randint(2, 4), rng.randint(1, 3), 3)
            k = rng.randint(1, 4)
            iv = sphere.sup_bounds(p, k)
            lo, hi = Fraction(iv.lower), Fraction(iv.upper)
            assert lo ** (2 * k) <= iv.lower_exact
            assert hi ** (2 * k) >= iv.upper_exact
            assert Fraction(math.nextafter(iv.lower, math.inf)) ** (2 * k) > iv.lower_exact
            assert Fraction(math.nextafter(iv.upper, 0.0)) ** (2 * k) < iv.upper_exact

    def test_roots_at_and_above_the_float_range(self):
        # a root above the largest float used to raise OverflowError
        # from Fraction(inf); inf still bounds it from above, and the
        # largest float's 2k-th power is below the moment
        top = sys.float_info.max
        iv = Interval.from_moment(Fraction(top) ** 2, 1, 1)
        assert iv.lower == iv.upper == top
        moment = Fraction(10 ** 700)
        iv = Interval.from_moment(moment, 3, 1)
        assert iv.upper == math.inf and iv.lower == top
        assert iv.lower_exact == moment and iv.upper_exact == 3 * moment
        assert Fraction(iv.lower) ** 2 <= iv.lower_exact

    def test_sum_of_squares_contains_one(self):
        p = SparsePoly.from_terms(2, 2, [((2, 0), 1), ((0, 2), 1)])
        iv = sphere.sup_bounds(p, 2)
        assert iv.lower == 1.0 <= iv.upper

    def test_power_of_linear_ratio_below_2_pow_half_d(self):
        # exact comparison at the 2k-power level:
        #   C(kd+n-1, kd) * moment <= 2^(kd) given sup = 1
        for n in range(1, 8):
            for d in range(1, 5):
                for k in range(1, 4):
                    moment = sphere.moment_2k(x1_power(n, d), k)
                    factor = math.comb(k * d + n - 1, k * d)
                    assert factor * moment <= 2 ** (k * d)

    @pytest.mark.parametrize("make, match", [
        (lambda: Interval(2.0, 1.0, Fraction(2), Fraction(1), 1), "out of order"),
        (lambda: Interval.from_moment(Fraction(-1), 1, 1), "negative"),
    ])
    def test_interval_guards(self, make, match):
        with pytest.raises(ValueError, match=match):
            make()

    def test_ratio_with_a_zero_lower_end_is_infinite(self):
        assert Interval(0.0, 0.5, Fraction(0), Fraction(1, 4), 1).ratio == math.inf
        assert Interval.from_moment(Fraction(0), 3, 1).ratio == 1.0

    def test_power_of_linear_closed_form(self):
        # the monomial integral of x1**(2kd) equals the walk's moment
        for n in (2, 3, 5, 8):
            for d in (1, 2, 3):
                for k in (1, 2, 3):
                    closed = oracle_monomial_moment(
                        (2 * k * d,) + (0,) * (n - 1), n)
                    assert sphere.moment_2k(x1_power(n, d), k) == closed


class TestChooseK:
    def test_n1_always_one(self):
        assert sphere.choose_k(1, 7, 0.001) == 1

    def test_huge_eps_is_one(self):
        assert sphere.choose_k(5, 4, 1e6) == 1

    @pytest.mark.parametrize("n, d", [(0, 2), (3, 0)])
    def test_n_or_d_below_one_refused(self, n, d):
        with pytest.raises(ValueError, match="n >= 1 and d >= 1"):
            sphere.choose_k(n, d, 0.5)

    @pytest.mark.parametrize("eps", [math.nan, math.inf, -1.0, 0.0])
    def test_non_finite_or_non_positive_eps_refused(self, eps):
        # a NaN eps used to return k = 1: every comparison with NaN is false
        with pytest.raises(ValueError, match="eps"):
            sphere.choose_k(3, 4, eps)

    def test_smallest_positive_eps_accepted(self):
        assert sphere.choose_k(1, 7, 5e-324) == 1

    def test_frozen_regression(self):
        # minimal k for n=3, d=4, eps=0.5 found by upward scan
        assert sphere.choose_k(3, 4, 0.5) == 9

    def test_matches_the_upward_scan(self):
        for n in range(2, 9):
            for d in range(1, 7):
                for eps in (1e6, 100.0, 10.0, 1.0, 0.5, 0.25, 0.1, 0.05, 0.01,
                            1e-3, 5e-4):
                    target = math.log1p(eps)
                    k = 1
                    while (n - 1) / (2 * k) * math.log(k * d + 1) >= target:
                        k += 1
                    assert sphere.choose_k(n, d, eps) == k

    def test_is_minimal(self):
        for (n, d, eps) in [(2, 3, 0.5), (3, 4, 0.5), (4, 2, 0.25)]:
            k = sphere.choose_k(n, d, eps)
            ok = (n - 1) / (2 * k) * math.log(k * d + 1) < math.log1p(eps)
            assert ok
            if k > 1:
                bad = (n - 1) / (2 * (k - 1)) * math.log((k - 1) * d + 1)
                assert bad >= math.log1p(eps)


class TestFewnomialSup:
    def test_power_of_linear_contains_one(self):
        for n in (1, 2, 4):
            iv = sphere.fewnomial_sup(x1_power(n, 3), 0.5)
            assert iv.lower <= 1.0 <= iv.upper
            assert iv.ratio <= 1.5

    def test_product_of_two_coordinates(self):
        # max |x1*x2| on the circle is 1/2
        p = SparsePoly.from_terms(2, 2, [((1, 1), 1)])
        iv = sphere.fewnomial_sup(p, 0.25)
        assert iv.lower <= 0.5 <= iv.upper
        assert iv.ratio <= 1.25

    def test_scaled_square(self):
        p = SparsePoly.from_terms(2, 2, [((2, 0), 3)])
        iv = sphere.fewnomial_sup(p, 0.01)
        assert iv.lower <= 3.0 <= iv.upper
        assert iv.ratio <= 1.01

    def test_ratio_guarantee_random(self):
        rng = random.Random(47)
        for _ in range(10):
            p = random_poly(rng, rng.randint(1, 3), rng.randint(1, 4), 3)
            eps = rng.choice([0.5, 0.25])
            iv = sphere.fewnomial_sup(p, eps)
            if not iv.degenerate:
                assert iv.ratio <= 1 + eps

    def test_budget_error_names_k(self):
        p = SparsePoly.from_terms(
            6, 4,
            [((4, 0, 0, 0, 0, 0), 1), ((0, 4, 0, 0, 0, 0), 1),
             ((0, 0, 4, 0, 0, 0), 1), ((1, 1, 1, 1, 0, 0), 2)])
        with pytest.raises(BudgetError) as exc:
            sphere.fewnomial_sup(p, 0.1, term_budget=1000)
        assert exc.value.k is not None and exc.value.k >= 1


class TestOddFactorWeights:
    """A one-term form charges one composition at every k, so the
    weights (a - 1)!! are built per call, only at the exponents the walk
    reads, and k * d odd factors are charged apart."""

    X1X2 = SparsePoly.from_terms(2, 2, [((1, 1), 1)])

    @pytest.mark.parametrize("eps", [1e-6, 1e-9])
    def test_large_k_refused_at_once(self, eps):
        # k = 8,313,259 and about 1.2e10: one composition each, and the
        # weights of up to 2k factors would not fit in memory
        start = time.perf_counter()
        with pytest.raises(BudgetError, match="weights of up to") as exc:
            sphere.fewnomial_sup(self.X1X2, eps)
        assert time.perf_counter() - start < 1.0
        k = sphere.choose_k(2, 2, eps)
        assert (exc.value.required, exc.value.budget, exc.value.k) == \
            (2 * k, sphere.DEFAULT_TERM_BUDGET, k)

    def test_closed_form_at_large_k(self):
        # x1**(2k) x2**(2k) integrates to ((2k - 1)!!)**2 / prod_{j<2k} (2 + 2j)
        k = sphere.choose_k(2, 2, 1e-3)
        assert k == 4562
        odd = math.prod(range(1, 2 * k, 2))
        assert sphere.moment_2k(self.X1X2, k) == Fraction(
            odd * odd, math.prod(2 + 2 * j for j in range(2 * k)))

    def test_closed_form_with_growing_powers(self):
        # (3 x1 x2)**(2k): the walk's term carries 3**(2k), built by steps
        k = 8000
        odd = math.prod(range(1, 2 * k, 2))
        assert sphere.moment_2k(SparsePoly.from_terms(2, 2, [((1, 1), 3)]), k) == \
            Fraction(3 ** (2 * k) * odd * odd, math.prod(2 + 2 * j for j in range(2 * k)))

    @pytest.mark.parametrize("items,k", [
        ([((1, 1), 3)], 8000),
        ([((2, 0), 9), ((1, 1), -7)], 3000),
    ])
    def test_large_k_in_little_memory(self, items, k):
        # no table of the powers c**r, r <= 2k: such a table grows as k**2,
        # to about 28 and 15 MB at these k
        p = SparsePoly.from_terms(2, 2, items)
        tracemalloc.start()
        try:
            sphere.moment_2k(p, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_charge_boundary(self):
        # k = 3 at d = 2: one composition, 6 odd factors
        sphere.moment_2k(self.X1X2, 3, term_budget=6)
        with pytest.raises(BudgetError) as exc:
            sphere.moment_2k(self.X1X2, 3, term_budget=5)
        assert (exc.value.required, exc.value.budget, exc.value.k) == (6, 5, 3)

    def test_no_module_level_table(self):
        tables = [name for name, value in vars(sphere).items()
                  if isinstance(value, (list, dict)) and not name.startswith("__")]
        assert tables == []


class TestSampleLowerBound:
    def test_sum_of_squares_is_constant_one(self):
        p = SparsePoly.from_terms(2, 2, [((2, 0), 1), ((0, 2), 1)])
        assert sphere.sample_lower_bound(p, 100, seed=0) == pytest.approx(1.0)

    def test_zero_poly(self):
        assert sphere.sample_lower_bound(SparsePoly.zero(3, 2), 10, seed=1) == 0.0

    def test_coordinate_approaches_one(self):
        val = sphere.sample_lower_bound(SparsePoly.variable(3, 0), 10 ** 5, seed=7)
        assert 0.9 <= val <= 1.0

    def test_deterministic_per_seed(self):
        p = random_poly(random.Random(5), 3, 2, 3)
        a = sphere.sample_lower_bound(p, 1000, seed=42)
        b = sphere.sample_lower_bound(p, 1000, seed=42)
        assert a == b

    def test_sample_never_exceeds_certified_upper(self):
        rng = random.Random(53)
        for _ in range(15):
            p = random_poly(rng, rng.randint(2, 4), rng.randint(1, 3), 3)
            iv = sphere.sup_bounds(p, rng.randint(1, 3))
            sampled = sphere.sample_lower_bound(p, 2000, seed=rng.randint(0, 99))
            assert sampled <= iv.upper

    def test_coefficient_beyond_the_float_range_refused(self):
        p = SparsePoly.from_terms(2, 1, [((1, 0), 10 ** 400), ((0, 1), 1)])
        with pytest.raises(ValueError, match="float range"):
            sphere.sample_lower_bound(p, trials=10, seed=1)

    def test_no_trials_refused(self):
        with pytest.raises(ValueError, match="trials"):
            sphere.sample_lower_bound(SparsePoly.variable(2, 0), trials=0, seed=1)


class TestSystemReduce:
    def test_orthonormal_coordinates_certified_gap(self):
        # q = x1^2 + x2^2 is identically 1 on the circle: no nonzero root
        system = [SparsePoly.variable(2, 0), SparsePoly.variable(2, 1)]
        result = sphere.system_reduce(system, k=6, delta=0.01)
        assert result.verdict == "certified gap"
        assert result.certified_min_q is not None and result.certified_min_q > 0

    def test_difference_possibly_solvable(self):
        # x1 - x2 vanishes on the diagonal
        p = SparsePoly.from_terms(2, 1, [((1, 0), 1), ((0, 1), -1)])
        result = sphere.system_reduce([p], k=3)
        assert result.verdict == "possibly solvable"

    def test_zero_system_degenerate(self):
        result = sphere.system_reduce([SparsePoly.zero(2, 1)], k=2)
        assert result.verdict == "possibly solvable"
        assert result.gamma == 0.0

    def test_gamma_exceeds_max_q_exactly(self):
        system = [SparsePoly.variable(2, 0), SparsePoly.variable(2, 1)]
        result = sphere.system_reduce(system, k=4)
        # q == 1 on the sphere, so gamma must exceed 1
        assert result.gamma_exact > 1

    @pytest.mark.parametrize("delta", [0.01, 1e-300])
    def test_gamma_is_the_float_above_the_upper_end(self, delta):
        # gamma is the float (1 + delta) * upper, which rounding keeps at
        # or above upper, and the outward-rounded upper end already has
        # its 2k-th power at or above upper_exact; at delta = 1e-300,
        # 1 + delta rounds to 1 and gamma is upper itself
        rng = random.Random(547)
        for _ in range(20):
            n, d, k = rng.randint(2, 3), rng.randint(1, 2), rng.randint(1, 4)
            system = [random_poly(rng, n, d, 3) for _ in range(rng.randint(1, n))]
            q = SparsePoly.zero(n, 2 * d)
            for p_i in system:
                q = q + p_i * p_i
            qb = sphere.sup_bounds(q, k)
            gamma = sphere.system_reduce(system, k, delta).gamma_exact
            assert gamma == Fraction((1 + delta) * qb.upper)
            assert gamma ** (2 * k) >= qb.upper_exact

    def test_empty_system_refused(self):
        with pytest.raises(ValueError, match="at least one"):
            sphere.system_reduce([], k=1)

    def test_verdict_decided_exactly(self):
        rng = random.Random(71)
        verdicts = set()
        for _ in range(40):
            n, d = rng.randint(2, 3), rng.randint(1, 2)
            system = [random_poly(rng, n, d, 3) for _ in range(rng.randint(1, n))]
            k = rng.randint(1, 4)
            delta = rng.choice([0.001, 0.01, 0.1, 0.3])
            r = sphere.system_reduce(system, k, delta)
            iv = r.interval
            gap = iv.upper_exact < (r.gamma_exact * (1 - Fraction(delta))) ** (2 * k)
            assert (r.verdict == "certified gap") == gap
            verdicts.add(r.verdict)
            if gap:
                # min q >= gamma - upper >= certified_min_q > 0, exactly
                min_q = Fraction(r.certified_min_q)
                assert 0 < min_q <= r.gamma_exact - Fraction(iv.upper)
                assert (r.gamma_exact - min_q) ** (2 * k) >= iv.upper_exact
            else:
                assert r.certified_min_q is None
        assert verdicts == {"certified gap", "possibly solvable"}

    @pytest.mark.parametrize("delta", [math.nan, math.inf, -1.0, 0.0])
    def test_non_finite_or_non_positive_delta_refused(self, delta):
        # an infinite delta used to escape as OverflowError from Fraction(inf)
        system = [SparsePoly.variable(2, 0), SparsePoly.variable(2, 1)]
        with pytest.raises(ValueError, match="delta"):
            sphere.system_reduce(system, k=2, delta=delta)
        with pytest.raises(ValueError, match="delta"):
            sphere.system_reduce([SparsePoly.zero(2, 1)], k=2, delta=delta)

    def test_delta_near_the_float_range(self):
        # gamma ~ 1e308 puts the certified upper end of |p| above the
        # float range
        system = [SparsePoly.variable(2, 0), SparsePoly.variable(2, 1)]
        r = sphere.system_reduce(system, k=2, delta=1e308)
        assert r.interval.upper == math.inf
        assert r.verdict == "possibly solvable"

    def test_smallest_positive_delta_accepted(self):
        system = [SparsePoly.variable(2, 0), SparsePoly.variable(2, 1)]
        r = sphere.system_reduce(system, k=6, delta=5e-324)
        assert r.gamma_exact > 1
        assert r.verdict in ("certified gap", "possibly solvable")

    def test_p_is_gamma_times_norm_power_minus_q(self):
        # |x|**(2d) against literal distribution of (x1**2 + ... + xn**2)**d;
        # its keys come first in p.terms, in ascending order
        rng = random.Random(73)
        for n in range(1, 5):
            for d in range(1, 4):
                system = [random_poly(rng, n, d, 3) for _ in range(rng.randint(1, n))]
                r = sphere.system_reduce(system, 1)
                sum_sq = SparsePoly.from_terms(
                    n, 2, [(tuple(2 if j == i else 0 for j in range(n)), 1)
                           for i in range(n)])
                norm = naive_pow(sum_sq, d)
                expected = {e: r.gamma_exact * c for e, c in norm.items()}
                for p_i in system:
                    for e, c in naive_poly_mul(p_i.terms, p_i.terms).items():
                        expected[e] = expected.get(e, Fraction(0)) - c
                assert r.p.terms == {e: c for e, c in expected.items() if c}
                keys = list(r.p.terms)
                head = [e for e in keys if e in norm]
                assert keys[:len(head)] == head == sorted(head)

    def test_norm_power_over_budget_refused(self):
        # |x|**2 in 4 variables has 4 terms; q = x1**2 needs one composition
        with pytest.raises(BudgetError) as exc:
            sphere.system_reduce([SparsePoly.variable(4, 0)], k=1, term_budget=3)
        assert (exc.value.required, exc.value.budget) == (4, 3)

    def test_gamma_beyond_the_float_range_refused(self):
        # max q is about 10**400, above the float range of gamma
        p = SparsePoly.from_terms(2, 1, [((1, 0), 10 ** 200), ((0, 1), 1)])
        with pytest.raises(ValueError, match="float range"):
            sphere.system_reduce([p], k=1)

    def test_degree_mismatch_rejected(self):
        with pytest.raises(ValueError):
            sphere.system_reduce(
                [SparsePoly.variable(2, 0),
                 SparsePoly.from_terms(2, 2, [((2, 0), 1)])], k=1)
