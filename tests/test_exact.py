import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import oracle_monomial_moment, wallis_circle_average
from orbitmax import exact, sphere
from orbitmax.sphere import SparsePoly


class TestSphereMonomialMoment:
    """Known values of the recurrence integrator in helpers, the one
    monomial reference the sphere tests compare against."""

    def test_square_coordinate(self):
        assert oracle_monomial_moment((2, 0, 0), 3) == Fraction(1, 3)

    def test_odd_exponent_vanishes(self):
        assert oracle_monomial_moment((1, 2, 0), 3) == 0

    def test_fourth_power_on_circle(self):
        # average of cos**4 over the circle, via the Wallis oracle
        assert wallis_circle_average(4, 0) == Fraction(3, 8)
        assert oracle_monomial_moment((4, 0), 2) == Fraction(3, 8)

    def test_circle_oracle_cross_check(self):
        for a in range(0, 7):
            for b in range(0, 7):
                assert oracle_monomial_moment((a, b), 2) == \
                    wallis_circle_average(a, b)

    def test_squares_sum_to_one(self):
        for n in range(1, 9):
            total = sum(
                oracle_monomial_moment(
                    tuple(2 if j == i else 0 for j in range(n)), n)
                for i in range(n))
            assert total == 1

    def test_constant_is_one(self):
        assert oracle_monomial_moment((0, 0, 0, 0), 4) == 1

    def test_even_moments_in_unit_interval(self):
        rng = random.Random(3)
        for _ in range(50):
            n = rng.randint(1, 6)
            alpha = tuple(2 * rng.randint(0, 3) for _ in range(n))
            m = oracle_monomial_moment(alpha, n)
            assert 0 < m <= 1

    def test_permutation_invariance(self):
        rng = random.Random(5)
        for _ in range(50):
            n = rng.randint(2, 6)
            alpha = [rng.randint(0, 5) for _ in range(n)]
            shuffled = alpha[:]
            rng.shuffle(shuffled)
            assert oracle_monomial_moment(tuple(alpha), n) == \
                oracle_monomial_moment(tuple(shuffled), n)

    def test_matches_recurrence_oracle(self):
        # the moment at k = 1 of the monomial x**beta is the integral of
        # x**(2 beta), which the library takes by Folland's formula
        rng = random.Random(7)
        for _ in range(100):
            n = rng.randint(1, 6)
            beta = [rng.randint(0, 3) for _ in range(n)]
            beta[rng.randrange(n)] += 1
            assert sphere.moment_2k(SparsePoly.monomial(n, beta), 1) == \
                oracle_monomial_moment(tuple(2 * b for b in beta), n)

    def test_single_point_sphere(self):
        # n = 1: the sphere is {-1, +1}, every even monomial averages to 1
        assert oracle_monomial_moment((8,), 1) == 1


class TestBoundFactor:
    def test_trivial_dimension(self):
        assert exact.bound_factor(1, 1) == 1.0

    def test_k_one_is_sqrt_dim(self):
        assert exact.bound_factor(4, 1) == 2.0
        assert exact.bound_factor(9, 1) == 3.0
        assert exact.bound_factor(144, 1) == 12.0

    def test_at_least_one(self):
        for dim in (1, 2, 7, 50):
            for k in (1, 2, 5):
                assert exact.bound_factor(dim, k) >= 1.0

    def test_non_increasing_in_k(self):
        for dim in (2, 5, 16, 100):
            values = [exact.bound_factor(dim, k) for k in range(1, 9)]
            assert all(a >= b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("dim, k, match", [(0, 1, "dim"), (3, 0, "k")])
    def test_dim_or_k_below_one_rejected(self, dim, k, match):
        with pytest.raises(ValueError, match=match):
            exact.bound_factor(dim, k)


class TestRoot2k:
    def test_one(self):
        for k in (1, 2, 7):
            assert exact.root_2k(Fraction(1), k) == 1.0

    def test_zero(self):
        assert exact.root_2k(Fraction(0), 5) == 0.0

    def test_square_roots(self):
        assert exact.root_2k(Fraction(1, 4), 1) == 0.5
        assert exact.root_2k(Fraction(1, 2), 1) == 0.7071067811865476

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            exact.root_2k(Fraction(-1), 1)

    def test_k_below_one_rejected(self):
        with pytest.raises(ValueError, match="k must be"):
            exact.root_2k(Fraction(4), 0)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 10 ** 12), st.integers(1, 10 ** 12), st.integers(1, 10))
    def test_relative_error_within_four_ulp(self, num, den, k):
        x = Fraction(num, den)
        r = Fraction(exact.root_2k(x, k))
        eps = Fraction(4, 2 ** 53)
        assert (r * (1 - eps)) ** (2 * k) <= x <= (r * (1 + eps)) ** (2 * k)


class TestExactArithmetic:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(-10 ** 9, 10 ** 9), st.integers(1, 10 ** 9),
           st.integers(-10 ** 9, 10 ** 9), st.integers(1, 10 ** 9))
    def test_addition_cross_multiplication(self, a, b, c, d):
        left = Fraction(a, b) + Fraction(c, d)
        assert left == Fraction(a * d + c * b, b * d)

    def test_lowest_terms_positive_denominator(self):
        x = Fraction(6, -4)
        assert x.numerator == -3 and x.denominator == 2


class TestRationalStrings:
    def test_round_trip(self):
        for f in (Fraction(3, 7), Fraction(-5), Fraction(0), Fraction(22, 4)):
            assert exact.parse_rational(exact.format_rational(f)) == f

    def test_parse_integer_string(self):
        assert exact.parse_rational("12") == 12

    def test_reject_float(self):
        with pytest.raises(ValueError):
            exact.parse_rational(0.5)

    def test_zero_denominator_is_value_error(self):
        for text in ("1/0", " -3/0 ", "0/0"):
            with pytest.raises(ValueError, match="zero denominator"):
                exact.parse_rational(text)

    def test_reject_boolean(self):
        for flag in (True, False):
            with pytest.raises(ValueError):
                exact.parse_rational(flag)


class TestIntegerReader:
    def test_accepts_ints_and_integer_strings(self):
        assert exact.parse_int(7) == 7
        assert exact.parse_int(" -12 ") == -12

    def test_accepts_other_integer_types(self):
        # types that define __index__, such as numpy's integers
        value = exact.parse_int(np.int64(-5))
        assert value == -5 and type(value) is int

    @pytest.mark.parametrize("value", [2.7, 2.0, True, False, np.bool_(True), None,
                                       "1.5", "1/2"])
    def test_refuses_the_rest(self, value):
        with pytest.raises(ValueError):
            exact.parse_int(value)

    def test_sequence_reader(self):
        assert exact.parse_ints([1, " 2 ", np.int64(3)]) == (1, 2, 3)
        assert exact.parse_ints(()) == ()
        for value in ("12", b"12", [1, 2.5], [True]):
            with pytest.raises(ValueError):
                exact.parse_ints(value)
