import math
import random
from fractions import Fraction

import pytest

from helpers import fraction_sandwich_sums, random_fraction, walk_cor16_k0
from orbitmax import assign
from orbitmax.exact import bound_factor
from orbitmax.sandwich import (cor16_factor_check, orbit_span_dim,
                               verify_sandwich)


def e1(n):
    return [Fraction(1)] + [Fraction(0)] * (n - 1)


class TestOrbitSpanDim:
    def test_basis_vector_k1_spans_everything(self):
        for n in (2, 3, 5):
            assert orbit_span_dim(e1(n), 1) == n

    def test_basis_vector_k2_diagonal_tensors(self):
        for n in (2, 3, 4):
            assert orbit_span_dim(e1(n), 2) == n

    def test_all_ones_is_fixed_point(self):
        for n in (2, 4):
            for k in (1, 2, 3):
                assert orbit_span_dim([1] * n, k) == 1

    def test_bounded_by_symmetric_dimension(self):
        rng = random.Random(1)
        for _ in range(20):
            n = rng.randint(2, 5)
            k = rng.randint(1, 3)
            v = [random_fraction(rng) for _ in range(n)]
            if all(x == 0 for x in v):
                v[0] = Fraction(1)
            assert orbit_span_dim(v, k) <= math.comb(n + k - 1, k)

    def test_invariant_under_permutation_and_scaling(self):
        rng = random.Random(2)
        for _ in range(15):
            n = rng.randint(2, 5)
            k = rng.randint(1, 3)
            v = [random_fraction(rng) for _ in range(n)]
            if all(x == 0 for x in v):
                v[0] = Fraction(1)
            base = orbit_span_dim(v, k)
            shuffled = v[:]
            rng.shuffle(shuffled)
            assert orbit_span_dim(shuffled, k) == base
            c = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            assert orbit_span_dim([c * x for x in v], k) == base

    def test_generic_vector_known_rank(self):
        # the six squared permutations of (1,2,3) span a 5-dimensional
        # space (frozen; agrees with an independent floating rank)
        assert orbit_span_dim([1, 2, 3], 2) == 5

    def test_cap(self):
        with pytest.raises(ValueError):
            orbit_span_dim([1] * 8, 1)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            orbit_span_dim([0, 0], 1)

    def test_k_below_one_rejected(self):
        with pytest.raises(ValueError, match="k must be"):
            orbit_span_dim([1, 2], 0)

    @pytest.mark.parametrize("v, match", [("12", "sequence of rationals"),
                                          ([1, 0.5], "float")])
    def test_values_read_as_rationals(self, v, match):
        with pytest.raises(ValueError, match=match):
            orbit_span_dim(v, 1)


class TestVerifySandwich:
    def test_point_mass_tight_case(self):
        report = verify_sandwich(e1(2), e1(2), 1)
        assert report.sup_abs == 1
        assert report.moment_2 == Fraction(1, 2)
        assert report.span_dim == 2
        upper = next(c for c in report.checks
                     if c.inequality.startswith("sup_abs^2k"))
        assert upper.holds and upper.tight

    def test_constant_function_all_tight(self):
        ones = [Fraction(1)] * 3
        report = verify_sandwich(ones, ones, 2)
        assert report.all_hold
        lower = next(c for c in report.checks
                     if c.inequality.startswith("moment_2k"))
        assert lower.tight

    def test_random_cases_all_hold(self):
        rng = random.Random(3)
        for _ in range(40):
            n = rng.randint(2, 5)
            k = rng.randint(1, 3)
            v = [random_fraction(rng) for _ in range(n)]
            ell = [random_fraction(rng) for _ in range(n)]
            if all(x == 0 for x in v):
                v[0] = Fraction(1)
            report = verify_sandwich(v, ell, k)
            assert report.all_hold, report.to_json()

    def test_moment_agrees_with_assignment_engine(self):
        rng = random.Random(4)
        for _ in range(15):
            n = rng.randint(2, 5)
            k = rng.randint(1, 3)
            v = [random_fraction(rng) for _ in range(n)]
            ell = [random_fraction(rng) for _ in range(n)]
            report = verify_sandwich(v, ell, k)
            a = assign.DenseTensor.from_entries(n, 1, v)
            b = assign.DenseTensor.from_entries(n, 1, ell)
            assert report.moment_2k == assign.moment_2k(a, b, k)

    def test_cap(self):
        with pytest.raises(ValueError):
            verify_sandwich([1] * 9, [1] * 9, 1)

    def test_empty_vectors_refused(self):
        with pytest.raises(ValueError):
            verify_sandwich([], [], 1)

    @pytest.mark.parametrize("v, ell, k, match", [
        ([1, 2], [1], 1, "equal length"),
        ([1, 2], [2, 1], 0, "k must be"),
        ("12", [2, 1], 1, "sequence of rationals"),
        ([1, 2], "21", 1, "sequence of rationals"),
        ([1, 2], [2, 0.5], 1, "float"),
    ])
    def test_malformed_input_refused(self, v, ell, k, match):
        with pytest.raises(ValueError, match=match):
            verify_sandwich(v, ell, k)

    def test_matches_fraction_oracle(self):
        rng = random.Random(5)
        for trial in range(60):
            n = rng.randint(1, 6)
            k = rng.randint(1, 4)
            v = [random_fraction(rng) for _ in range(n)]
            ell = [random_fraction(rng) for _ in range(n)]
            if trial % 5 == 0:
                v = [0] * n
            elif trial % 5 == 1:
                ell = [Fraction(0)] * n
            report = verify_sandwich(v, ell, k)
            assert (report.sup_abs, report.moment_2, report.moment_2k) == \
                fraction_sandwich_sums(v, ell, k)

    def test_report_json_shape(self):
        obj = verify_sandwich(e1(3), e1(3), 2).to_json()
        assert {"inequality", "lhs", "rhs", "holds", "tight", "margin"} <= \
            set(obj["checks"][0])


class TestCor16:
    def test_eps_two_gives_k0_one(self):
        assert cor16_factor_check(1, 2.0).k0 == 1

    def test_k0_matches_the_factorial_scan(self):
        # the running integers find the k0 of the from-scratch scan
        for eps in [0.1 + 0.05 * i for i in range(79)] + [1.0, 2.0 ** 0.5]:
            epsf, k0 = Fraction(eps), 1
            while not math.factorial(k0) * epsf ** (2 * k0) > 2 ** k0:
                k0 += 1
            assert cor16_factor_check(5, eps).k0 == k0, eps

    def test_k0_matches_the_running_walk(self):
        # the estimate settled on exact integers finds the walk's k0, also
        # above sqrt(2), where k0 = 1
        grid = [0.05 * i for i in range(1, 81)] + [2.0 ** 0.5, 1.4143, 0.0999]
        for eps in grid:
            assert cor16_factor_check(5, eps).k0 == walk_cor16_k0(eps), eps
        assert cor16_factor_check(5, 1.4143).k0 == 1

    @pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf, 0.0, -0.5])
    def test_non_finite_or_non_positive_eps_refused(self, eps):
        with pytest.raises(ValueError):
            cor16_factor_check(5, eps)

    def test_dim_below_one_refused(self):
        with pytest.raises(ValueError, match="dim must be"):
            cor16_factor_check(0, 0.5)

    def test_report_json_shape(self):
        report = cor16_factor_check(3, 1.0)
        obj = report.to_json()
        assert (obj["eps"], obj["k0"], obj["all_hold"]) == \
            (1.0, report.k0, report.all_hold)
        assert obj["checks"] == [
            {"dim": c.dim, "factor": c.factor, "threshold": c.threshold,
             "holds": c.holds, "applicable": c.applicable} for c in report.checks]

    def test_huge_eps_gives_k0_one(self):
        assert cor16_factor_check(5, 1e9).k0 == 1

    def test_k0_is_minimal(self):
        for eps in (1.0, 0.5, 0.25):
            report = cor16_factor_check(4, eps)
            k0 = report.k0
            epsf = Fraction(eps)
            assert math.factorial(k0) * epsf ** (2 * k0) > 2 ** k0
            if k0 > 1:
                assert not (math.factorial(k0 - 1) * epsf ** (2 * (k0 - 1))
                            > 2 ** (k0 - 1))

    def test_factor_bound_holds_at_sampled_dims(self):
        for eps in (1.0, 0.5, 0.25):
            report = cor16_factor_check(7, eps)
            assert report.all_hold
            for check in report.checks:
                if check.applicable:
                    assert check.factor <= check.threshold
                    assert check.dim >= report.k0

    def test_sampled_dims_cover_multiples(self):
        report = cor16_factor_check(3, 1.0)
        dims = {c.dim for c in report.checks}
        assert {report.k0, 2 * report.k0, 10 * report.k0} <= dims

    def test_float_factor_consistent(self):
        report = cor16_factor_check(10, 0.5)
        for check in report.checks:
            assert check.factor == bound_factor(check.dim, report.k0)
