import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

import reference
from smoothcert.statfun import (binom_two_sided_pvalue, clopper_pearson_lower,
                                std_normal_quantile)

GRID_P = [i / 1000 for i in range(1, 1000)]


class TestNormalQuantile:
    def test_median(self):
        assert std_normal_quantile(0.5) == 0.0

    def test_known_values(self):
        """Frozen from the bisection oracle."""
        assert abs(std_normal_quantile(0.8) - 0.8416212335729143) < 1e-9
        assert abs(std_normal_quantile(0.933254) - 1.5004727000278852) < 1e-9

    def test_round_trip_grid(self):
        """Phi(Phi^-1(p)) = p within 1e-10 on the millesimal grid."""
        for p in GRID_P:
            assert abs(ndtr(std_normal_quantile(p)) - p) < 1e-10

    def test_round_trip_tails(self):
        """The contract |Phi(z) - p| <= 1e-12 holds deep into both tails."""
        for p in [1e-9, 1e-6, 1e-4, 1 - 1e-4, 1 - 1e-6, 1 - 1e-9]:
            assert abs(ndtr(std_normal_quantile(p)) - p) < 1e-12

    def test_symmetry(self):
        for p in GRID_P:
            assert abs(std_normal_quantile(p) + std_normal_quantile(1 - p)) < 1e-10

    def test_domain_errors(self):
        for p in [0.0, 1.0, -0.1, 1.1]:
            with pytest.raises(ValueError):
                std_normal_quantile(p)

    @given(st.floats(min_value=1e-8, max_value=1 - 1e-8))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_property(self, p):
        assert abs(ndtr(std_normal_quantile(p)) - p) < 1e-12


class TestTwoSidedPvalue:
    def test_center_is_one(self):
        """Observing the exact center of Binomial(n, 1/2) is never significant."""
        assert binom_two_sided_pvalue(50, 100, 0.5) == 1.0
        assert binom_two_sided_pvalue(5, 10, 0.5) == 1.0

    def test_extreme_tail(self):
        """All ten heads: both tails together carry 2/1024."""
        assert binom_two_sided_pvalue(10, 10, 0.5) == pytest.approx(2.0 / 1024.0, abs=1e-12)

    def test_against_exact_oracle(self):
        for k, n in [(55, 100), (45, 100), (99, 100), (0, 7), (12, 20)]:
            expected = float(reference.exact_two_sided_pvalue(k, n))
            assert binom_two_sided_pvalue(k, n, 0.5) == pytest.approx(expected, abs=1e-11)

    def test_frozen_headline_value(self):
        assert binom_two_sided_pvalue(55, 100, 0.5) == pytest.approx(0.36820161732669654,
                                                                     abs=1e-11)

    def test_only_symmetric_null(self):
        with pytest.raises(ValueError):
            binom_two_sided_pvalue(5, 10, 0.4)

    def test_never_below_exact_small_n(self):
        """Safe side: at least the exact rational p-value for every k, n <= 60
        (without the margin, betainc is below it in 198 of these cases)."""
        for n in range(1, 61):
            for k in range(n + 1):
                assert Fraction(binom_two_sided_pvalue(k, n, 0.5)) >= \
                    reference.exact_two_sided_pvalue(k, n), (k, n)

    @pytest.mark.parametrize("k,n", [(49227, 100005), (49550, 99991), (50395, 100003),
                                     (502427, 999991), (497851, 1000007),
                                     (496917, 1000008), (503979, 1000002),
                                     (7465639, 15055843), (10389853, 20865553)])
    def test_never_below_mpmath_large_n(self, k, n):
        """Safe side at large n against 40-digit mpmath sums, at (k, n) where
        betainc alone is below them, and less than 1e-10 relative above.  At
        the last two, with p-values of 4.0e-226 and 8.5e-79, betainc is 1.9e-11
        and 1.6e-11 relative below, beyond a fixed 1.5e-11 margin."""
        p = binom_two_sided_pvalue(k, n, 0.5)
        exact = reference.binom_two_sided_pvalue_mp(k, n)
        assert exact <= p <= exact * (1 + 1e-10)

    @pytest.mark.parametrize("n", [1075, 1080, 1200])
    def test_never_below_mpmath_where_betainc_underflows(self, n):
        """From n = 1075, betainc returns 0 for p-values up to 7.9e-254 (at
        k = 38, n = 1075); the floor keeps every result at or above the
        40-digit mpmath sum, e.g. 1.25e-276 at k = 24, n = 1080."""
        for k in range(61):
            assert binom_two_sided_pvalue(k, n, 0.5) >= \
                reference.binom_two_sided_pvalue_mp(k, n), (k, n)

    @pytest.mark.parametrize("alpha", [0.01, 0.05])
    def test_validity_by_enumeration(self, alpha):
        """P(pvalue <= alpha) <= alpha under the null, exactly at n = 100."""
        n = 100
        table = [Fraction(math.comb(n, k), 2**n) for k in range(n + 1)]
        rejected = sum((table[k] for k in range(n + 1)
                        if binom_two_sided_pvalue(k, n, 0.5) <= alpha), Fraction(0))
        assert rejected <= Fraction(alpha).limit_denominator(10**6)


class TestClopperPearsonLower:
    def test_zero_successes(self):
        assert clopper_pearson_lower(0, 50, 0.05) == 0.0

    @pytest.mark.parametrize("n", [1, 10, 100, 1000, 100_000])
    def test_all_successes_closed_form(self, n):
        """k = n solves p^n = alpha exactly: alpha^(1/n)."""
        assert abs(clopper_pearson_lower(n, n, 0.001) - 0.001 ** (1.0 / n)) < 1e-9

    def test_against_exact_oracle(self):
        """Bisection on log-space CDF agrees with exact big-integer bisection."""
        for k, n, alpha in [(60, 100, 0.001), (7, 10, 0.05), (90, 100, 0.01),
                            (1, 30, 0.001), (55, 100, 0.2)]:
            expected = reference.exact_clopper_pearson_lower(k, n, alpha)
            assert clopper_pearson_lower(k, n, alpha) == pytest.approx(expected, abs=1e-9)

    def test_frozen_headline_value(self):
        """CP lower for 60/100 at alpha = 0.001, frozen from the exact oracle."""
        assert clopper_pearson_lower(60, 100, 0.001) == pytest.approx(0.4409842652212985,
                                                                      abs=1e-9)

    def test_monotone_in_k(self):
        values = [clopper_pearson_lower(k, 40, 0.05) for k in range(0, 41, 4)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_monotone_in_alpha(self):
        values = [clopper_pearson_lower(30, 40, a) for a in [0.001, 0.01, 0.05, 0.2]]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_coverage_simulation(self):
        """Empirical miss rate at alpha = 0.05 stays below 0.06 (simulation slack)."""
        rng = np.random.default_rng(20240817)
        n, runs = 500, 10_000
        for p_true in [0.6, 0.9, 0.99]:
            draws = rng.binomial(n, p_true, size=runs)
            cache = {}
            misses = 0
            for k in draws:
                k = int(k)
                if k not in cache:
                    cache[k] = clopper_pearson_lower(k, n, 0.05)
                misses += cache[k] > p_true
            assert misses / runs <= 0.06

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            clopper_pearson_lower(5, 4, 0.05)
        with pytest.raises(ValueError):
            clopper_pearson_lower(3, 4, 0.0)

    @pytest.mark.parametrize("alpha", [0.001, 0.05, 0.2686, 0.5])
    def test_bound_errs_on_safe_side_exactly(self, alpha):
        """Exact rationals: the returned p never has upper tail above alpha.

        Covers every k at every n <= 60.  The raw beta quantile overshoots in
        about half of these cases, and stopping at tail <= alpha without the
        relative margin leaves about a sixth of them slightly over alpha.
        """
        bound = Fraction(alpha)
        for n in range(1, 61):
            for k in range(1, n + 1):
                p = clopper_pearson_lower(k, n, alpha)
                assert 1 - reference.exact_binom_cdf(k - 1, n, Fraction(p)) <= bound, (k, n)

    # Each case is unsafe without the step-down (raw beta quantile); the
    # third and fourth also without the 1e-12 margin; the first, third,
    # fourth and fifth also when scipy's bdtrc decides when to stop.
    @pytest.mark.parametrize("k,n,alpha", [(99000, 100000, 1e-3), (419, 585662, 0.2686),
                                           (1184, 316053, 1e-3), (27, 1566000, 0.005),
                                           (1425095, 1425251, 1e-4)])
    def test_bound_errs_on_safe_side_large_n(self, k, n, alpha):
        """40-digit mpmath tails (no scipy) at large n: tail <= alpha, and the
        bound lies less than 1e-10 relative below the root."""
        p = clopper_pearson_lower(k, n, alpha)
        assert reference.binom_upper_tail(k, n, p) <= alpha
        assert reference.binom_upper_tail(k, n, p * (1 + 1e-10)) > alpha

    @given(st.integers(min_value=1, max_value=60), st.integers(min_value=0, max_value=60))
    @settings(max_examples=60, deadline=None)
    def test_sound_direction_property(self, n, k):
        """The lower limit never exceeds the point estimate k/n."""
        k = min(k, n)
        assert clopper_pearson_lower(k, n, 0.05) <= k / n + 1e-12
