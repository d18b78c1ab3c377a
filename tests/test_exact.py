import math
import random
import sys
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

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 10 ** 300), st.integers(1, 10 ** 300), st.integers(1, 80))
    def test_within_one_float_step(self, num, den, k):
        # the root lies between the floats on either side of the result,
        # and in fact between the midpoints to them: the nearest float
        x = Fraction(num, den)
        r = exact.root_2k(x, k)
        below, above = math.nextafter(r, 0.0), math.nextafter(r, math.inf)
        assert Fraction(below) ** (2 * k) <= x <= Fraction(above) ** (2 * k)
        low, r, high = map(Fraction, (below, r, above))
        assert ((low + r) / 2) ** (2 * k) <= x <= ((r + high) / 2) ** (2 * k)

    @pytest.mark.parametrize("root", [0.375, 12.0, 1 / 3, 5e-324, sys.float_info.max])
    @pytest.mark.parametrize("k", [1, 7, 4562])
    def test_exact_on_float_roots(self, root, k):
        assert exact.root_2k(Fraction(root) ** (2 * k), k) == root

    def test_outside_the_float_range(self):
        assert exact.root_2k(Fraction(2 ** 2050), 1) == math.inf
        assert exact.root_2k(Fraction(1, 2 ** 2152), 1) == 0.0


class TestTruncatedPower:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 2 ** 1100), st.integers(2, 5000))
    def test_bounds_the_power(self, m, n):
        lo, hi, s = exact._pow_trunc(m, n)
        power = m ** n
        assert hi.bit_length() <= exact._BITS + 1 and s >= 0
        assert lo << s <= power <= hi << s
        # a cut loses under 2**(2 - _BITS) of both ends together, and the
        # squarings after it double that at most log2(n) + 1 times
        assert (hi - lo) * 2 ** exact._BITS <= 16 * n * hi

    def test_exact_while_nothing_is_cut(self):
        assert exact._pow_trunc(3, 40) == (3 ** 40, 3 ** 40, 0)


class TestPowerComparison:
    @settings(max_examples=200, deadline=None)
    @given(st.floats(0.0, 1e300), st.integers(1, 60), st.integers(0, 10 ** 200),
           st.integers(1, 10 ** 200))
    def test_sign_matches_exact(self, f, k, num, den):
        x = Fraction(num, den)
        p = Fraction(f) ** (2 * k)
        assert exact._power_cmp(f, 2 * k, x) == (p > x) - (p < x)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(1e-300, 1e300), st.integers(1, 60), st.integers(-3, 3),
           st.integers(4, 2 ** 200))
    def test_sign_next_to_a_power(self, f, k, offset, den):
        # x within a relative 3 / den of f**(2k), where the 160-bit
        # brackets overlap and the exact comparison decides
        p = Fraction(f) ** (2 * k)
        x = p * Fraction(den + offset, den)
        assert exact._power_cmp(f, 2 * k, x) == (p > x) - (p < x)

    @pytest.mark.parametrize("f", [5e-324, 0.375, 1.0, 2.0 ** 70 + 2.0 ** 18, sys.float_info.max])
    @pytest.mark.parametrize("k", [1, 2, 30])
    def test_perfect_powers_and_their_neighbours(self, f, k):
        n = 2 * k
        power = Fraction(f) ** n
        step = Fraction(1, 3 ** 260)  # about 2**-412, cut from x's denominator
        assert exact._power_cmp(f, n, power) == 0
        assert exact._power_cmp(f, n, power * (1 + step)) == -1
        assert exact._power_cmp(f, n, power * (1 - step)) == 1
        assert exact._power_cmp(0.0, n, power) == -1
        assert exact._power_cmp(0.0, n, Fraction(0)) == 0
        assert exact._power_cmp(f, n, Fraction(0)) == 1


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


class TestBudgetReader:
    def test_reads_integers_and_applies_the_default(self):
        assert exact.parse_budget(None, 7) == 7
        assert exact.parse_budget(None) is None
        assert exact.parse_budget(0, 7) == 0
        assert exact.parse_budget(" 100 ") == 100
        value = exact.parse_budget(np.int64(5))
        assert value == 5 and type(value) is int
        with pytest.raises(ValueError, match="budget must be >= 0, got -1"):
            exact.parse_budget(-1)

    @pytest.mark.parametrize("value", [2.5e8, 2.0, True, False, "1.5", -1, "-3"])
    def test_refuses_the_rest(self, value):
        with pytest.raises(ValueError):
            exact.parse_budget(value, 10)


class TestRationalSequenceReader:
    def test_reads_each_value(self):
        values = exact.parse_rationals([1, " 2/4 ", Fraction(3, 5)])
        assert values == (1, Fraction(1, 2), Fraction(3, 5))
        assert all(type(v) is Fraction for v in values)
        assert exact.parse_rationals(()) == ()
        assert exact.parse_rationals(iter(["7"])) == (7,)

    @pytest.mark.parametrize("value", ["12", b"12", [1, 2.5], [True], ["half"]])
    def test_refuses_strings_and_bad_values(self, value):
        with pytest.raises(ValueError):
            exact.parse_rationals(value)
