import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitmax import bounds, sphere
from orbitmax.bounds import Interval

TINY = 5e-324  # the smallest subnormal
TOP = sys.float_info.max


def assert_tight(iv):
    """Each float end is the tightest float on its certified side: lower
    the largest float whose 2k-th power is at most lower_exact, upper the
    smallest whose 2k-th power is at least upper_exact."""
    n = 2 * iv.k_used
    assert Fraction(iv.lower) ** n <= iv.lower_exact
    if iv.lower < TOP:
        assert Fraction(math.nextafter(iv.lower, math.inf)) ** n > iv.lower_exact
    if iv.upper < math.inf:
        assert Fraction(iv.upper) ** n >= iv.upper_exact
        if iv.upper > 0:
            assert Fraction(math.nextafter(iv.upper, 0.0)) ** n < iv.upper_exact
    else:
        assert Fraction(TOP) ** n < iv.upper_exact


class TestTightEnds:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 10 ** 300), st.integers(1, 10 ** 300),
           st.integers(1, 10 ** 6), st.integers(1, 80))
    def test_ends_are_the_tightest_floats(self, num, den, factor, k):
        assert_tight(Interval.from_moment(Fraction(num, den), factor, k))

    def test_large_k_moment(self):
        # the x1*x2 moment of fewnomial_sup at eps = 1e-3: numerator and
        # denominator of about 9,000 and 18,000 bits
        p = sphere.SparsePoly.from_terms(2, 2, [((1, 1), 1)])
        k = 4562
        iv = sphere.sup_bounds(p, k)
        assert iv.k_used == k and iv.lower < 0.5 < iv.upper
        assert_tight(iv)


class TestBoundaryRoots:
    @pytest.mark.parametrize("root", [0.375, 12.0, 2.0 ** -600, TINY, TOP])
    @pytest.mark.parametrize("k", [1, 3, 40])
    def test_root_that_is_a_float(self, root, k):
        iv = Interval.from_moment(Fraction(root) ** (2 * k), 1, k)
        assert iv.lower == iv.upper == root

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_root_below_the_smallest_subnormal(self, k):
        # the root 2**-1075 is half the smallest subnormal
        iv = Interval.from_moment(Fraction(1, 2 ** (1075 * 2 * k)), 1, k)
        assert iv.lower == 0.0 and iv.upper == TINY
        assert_tight(iv)

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_root_above_the_float_range(self, k):
        iv = Interval.from_moment(Fraction(2 ** (1025 * 2 * k)), 1, k)
        assert iv.upper == math.inf and iv.lower == TOP
        assert_tight(iv)

    @pytest.mark.parametrize("root", [0.5, 3.0, 12.0])
    @pytest.mark.parametrize("k", [1, 4, 60])
    def test_perfect_power_moved_by_a_tiny_amount(self, root, k):
        power = Fraction(root) ** (2 * k)
        tiny = Fraction(1, 10 ** 400)
        above = Interval.from_moment(power + tiny, 1, k)
        assert above.lower == root and above.upper == math.nextafter(root, math.inf)
        below = Interval.from_moment(power - tiny, 1, k)
        assert below.lower == math.nextafter(root, 0.0) and below.upper == root


class TestOutwardRoot:
    # the ends are certified by exact comparison whatever root_2k returns
    @pytest.mark.parametrize("steps", [-7, -1, 1, 7])
    @pytest.mark.parametrize("x, k", [(Fraction(2), 1), (Fraction(10 ** 40, 3), 5),
                                      (Fraction(12) ** 8, 4)])
    def test_seed_steps_off_still_certified(self, monkeypatch, steps, x, k):
        tight = Interval.from_moment(x, 1, k)
        seed = bounds.root_2k(x, k)
        for _ in range(abs(steps)):
            seed = math.nextafter(seed, math.inf if steps > 0 else 0.0)
        monkeypatch.setattr(bounds, "root_2k", lambda x, k: seed)
        lower = bounds._outward_root(x, k, upward=False)
        upper = bounds._outward_root(x, k, upward=True)
        assert Fraction(lower) ** (2 * k) <= x <= Fraction(upper) ** (2 * k)
        # a seed on the side it must step away from still gives the tightest end
        if steps < 0:
            assert upper == tight.upper
        else:
            assert lower == tight.lower
