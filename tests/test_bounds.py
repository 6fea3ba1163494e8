import math

import numpy as np
import pytest

import reference
from oracles import worst_case_runner_prob, worst_case_top_prob
from smoothcert.bounds import (BoundInputs, dp_radius, max_certifiable_radius,
                               renyi_radius, tight_radius, tight_radius_binary)

PHI_1 = 0.8413447460685429        # Phi(1), reference oracle
PHI_INV_08 = 0.8416212335729143   # Phi^-1(0.8), reference oracle


def inputs(pa, pb, sigma=1.0):
    return BoundInputs(pa_lower=pa, pb_upper=pb, sigma=sigma)


class TestBoundInputs:
    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            BoundInputs(pa_lower=0.4, pb_upper=0.6, sigma=1.0)

    def test_sigma_positive(self):
        with pytest.raises(ValueError):
            BoundInputs(pa_lower=0.8, pb_upper=0.2, sigma=0.0)


class TestTightRadius:
    def test_equal_probabilities_give_zero(self):
        assert tight_radius(inputs(0.5, 0.5)) == 0.0

    def test_symmetric_case(self):
        """pb = 1 - pa collapses to Phi^-1(pa)."""
        assert tight_radius(inputs(0.8, 0.2)) == pytest.approx(PHI_INV_08, abs=1e-9)

    def test_sigma_scaling(self):
        assert tight_radius(inputs(0.8, 0.2, sigma=0.5)) == pytest.approx(
            0.5 * PHI_INV_08, abs=1e-9)

    def test_infinite_radius_signaling(self):
        assert tight_radius(inputs(1.0, 0.2)) == math.inf
        assert tight_radius(inputs(0.8, 0.0)) == math.inf

    def test_monotone_in_probabilities(self):
        base = tight_radius(inputs(0.8, 0.15))
        assert tight_radius(inputs(0.85, 0.15)) >= base
        assert tight_radius(inputs(0.8, 0.1)) >= base


class TestTightRadiusBinary:
    def test_domain_error_at_half(self):
        with pytest.raises(ValueError):
            tight_radius_binary(0.5, 1.0)
        with pytest.raises(ValueError):
            tight_radius_binary(0.3, 1.0)

    def test_vanishes_near_half(self):
        assert 0.0 < tight_radius_binary(0.5 + 1e-9, 1.0) < 1e-6

    def test_known_values(self):
        assert tight_radius_binary(0.933254, 1.0) == pytest.approx(1.5004727000278852,
                                                                   abs=1e-9)
        assert tight_radius_binary(PHI_1, 2.0) == pytest.approx(2.0, abs=1e-9)

    def test_consistent_with_general_bound(self):
        """Binary case equals the general bound at pb = 1 - pa."""
        for pa in np.linspace(0.51, 0.999, 40):
            general = tight_radius(inputs(pa, 1.0 - pa))
            assert abs(general - tight_radius_binary(pa, 1.0)) < 1e-12


class TestWorstCaseProbs:
    def test_zero_offset_is_identity(self):
        assert worst_case_top_prob(0.77, 1.3, 0.0) == pytest.approx(0.77, abs=1e-12)
        assert worst_case_runner_prob(0.13, 0.7, 0.0) == pytest.approx(0.13, abs=1e-12)

    def test_unit_shift(self):
        """Starting from Phi(+-1), a one-sigma offset lands exactly on 1/2."""
        assert worst_case_top_prob(PHI_1, 1.0, 1.0) == pytest.approx(0.5, abs=1e-12)
        assert worst_case_runner_prob(1.0 - PHI_1, 1.0, 1.0) == pytest.approx(0.5, abs=1e-12)

    def test_frozen_values(self):
        """Frozen from the reference oracle composition."""
        assert worst_case_top_prob(0.9, 1.0, 0.5) == pytest.approx(0.7827609195726949,
                                                                   abs=1e-9)
        assert worst_case_runner_prob(0.2, 2.0, 1.0) == pytest.approx(0.3663179777593956,
                                                                      abs=1e-9)

    def test_crossing_at_tight_radius(self):
        """The two translated probabilities meet exactly at the certified radius."""
        rng = np.random.default_rng(7)
        for _ in range(300):
            pa = rng.uniform(0.5, 0.999)
            pb = rng.uniform(0.001, min(pa, 1.0 - pa))
            sigma = rng.uniform(0.1, 3.0)
            r = tight_radius(inputs(pa, pb, sigma))
            top = worst_case_top_prob(pa, sigma, r)
            runner = worst_case_runner_prob(pb, sigma, r)
            assert abs(top - runner) < 1e-9


class TestMaxCertifiableRadius:
    def test_headline_points(self):
        """Frozen from the reference quantile: the n = 100 and n = 1e5 ceilings."""
        assert max_certifiable_radius(100, 0.001, 1.0) == pytest.approx(1.5004750241206364,
                                                                        abs=1e-9)
        assert max_certifiable_radius(100_000, 0.001, 1.0) == pytest.approx(
            3.8114565633899145, abs=1e-9)

    def test_sigma_linearity(self):
        one = max_certifiable_radius(1000, 0.001, 1.0)
        assert max_certifiable_radius(1000, 0.001, 2.0) == pytest.approx(2.0 * one, rel=1e-12)

    def test_monotone_in_n(self):
        values = [max_certifiable_radius(n, 0.001, 1.0) for n in [10, 100, 10**4, 10**6]]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_crosses_four_sigma(self):
        assert max_certifiable_radius(10**5, 0.001, 1.0) < 4.0
        assert max_certifiable_radius(10**6, 0.001, 1.0) > 4.0

    def test_domain_error(self):
        with pytest.raises(ValueError):
            max_certifiable_radius(1, 0.4, 1.0)


class TestDpRadius:
    def test_empty_interval_gives_zero(self):
        assert dp_radius(inputs(0.5, 0.5)) == 0.0

    def test_against_dense_grid(self):
        got = dp_radius(inputs(0.8, 0.2))
        oracle = reference.dp_radius_grid(0.8, 0.2, 1.0)
        assert got == pytest.approx(oracle, rel=1e-6)
        assert 0.0 < got < PHI_INV_08

    def test_below_renyi(self):
        assert dp_radius(inputs(0.999, 0.001)) < renyi_radius(inputs(0.999, 0.001))

    def test_sigma_linearity(self):
        assert dp_radius(inputs(0.8, 0.2, sigma=3.0)) == pytest.approx(
            3.0 * dp_radius(inputs(0.8, 0.2)), rel=1e-6)

    def test_boundary_supremum(self):
        """At extreme pa the supremum sits at the beta = 1 endpoint."""
        got = dp_radius(inputs(0.999, 0.001))
        oracle = reference.dp_radius_grid(0.999, 0.001, 1.0)
        assert got == pytest.approx(oracle, rel=1e-6)


class TestRenyiRadius:
    def test_equal_probabilities_give_zero(self):
        assert renyi_radius(inputs(0.3, 0.3)) == 0.0
        assert renyi_radius(inputs(0.9, 0.9)) == 0.0

    def test_against_dense_grid(self):
        for pa, pb in [(0.8, 0.2), (0.999, 0.001), (0.7, 0.1), (0.55, 0.45),
                       (0.533041, 0.444245)]:
            got = renyi_radius(inputs(pa, pb))
            oracle = reference.renyi_radius_grid(pa, pb, 1.0)
            assert got == pytest.approx(oracle, rel=1e-6)

    def test_between_dp_and_tight(self):
        mid = renyi_radius(inputs(0.8, 0.2))
        assert dp_radius(inputs(0.8, 0.2)) < mid < tight_radius(inputs(0.8, 0.2))

    def test_sigma_linearity(self):
        assert renyi_radius(inputs(0.8, 0.2, sigma=3.0)) == pytest.approx(
            3.0 * renyi_radius(inputs(0.8, 0.2)), rel=1e-6)

    def test_degenerate_pb_zero(self):
        """pb = 0 keeps a finite supremum (approached as alpha -> 1)."""
        got = renyi_radius(inputs(0.8, 0.0))
        assert got == pytest.approx(math.sqrt(-2.0 * math.log(0.2)), rel=1e-4)
        assert renyi_radius(inputs(1.0, 0.0)) == math.inf


class TestOrdering:
    def test_three_bound_ordering(self):
        """tight >= renyi >= dp across the symmetric grid, strictly below 0.99."""
        grid = [0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95, 0.99, 0.999]
        for pa in grid:
            bi = inputs(pa, 1.0 - pa)
            tight, renyi, dp = tight_radius(bi), renyi_radius(bi), dp_radius(bi)
            assert tight >= renyi >= dp
            if pa <= 0.99:
                assert tight > renyi

    def test_near_tie_renyi_below_tight(self):
        """pb^(1-alpha) overflows at large orders here; a power mean read as 0
        put renyi at 0.0994 against tight 0.0516."""
        bi = inputs(0.5166583176525819, 0.4754790879217296)
        tight, renyi, dp = tight_radius(bi), renyi_radius(bi), dp_radius(bi)
        assert tight >= renyi >= dp
        assert renyi == pytest.approx(reference.renyi_radius_grid(
            0.5166583176525819, 0.4754790879217296, 1.0), rel=1e-6)

    def test_random_asymmetric_pairs(self):
        """tight >= renyi and tight >= dp for 0 <= pb <= min(pa, 1 - pa):
        uniform pairs, near ties (pb within a relative 1e-8 to 0.3 below
        min(pa, 1 - pa)) and pb = 0.  renyi >= dp is checked from pa = 0.2:
        below pa = 0.1 dp can exceed renyi (pa = 0.033, pb = 0.0066 at
        sigma 1: 0.199 against 0.142, with tight 0.319)."""
        rng = np.random.default_rng(11)
        pairs = []
        for _ in range(200):
            pa = rng.uniform(0.0, 1.0)
            pairs.append((pa, rng.uniform(0.0, min(pa, 1.0 - pa))))
            pa = rng.uniform(0.2, 0.8)
            pairs.append((pa, min(pa, 1.0 - pa) * (1.0 - 10.0 ** rng.uniform(-8.0, -0.5))))
        pairs += [(pa, 0.0) for pa in rng.uniform(0.05, 0.95, 10)]
        for pa, pb in pairs:
            bi = inputs(pa, pb, sigma=rng.uniform(0.1, 3.0))
            tight, renyi, dp = tight_radius(bi), renyi_radius(bi), dp_radius(bi)
            assert tight >= max(renyi, dp), (pa, pb)
            if pa >= 0.2:
                assert renyi >= dp, (pa, pb)
