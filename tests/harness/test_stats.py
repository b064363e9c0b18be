"""Tests for the statistics helpers."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.harness.stats import RateEstimate, wilson_interval
from repro.errors import AnalysisError


class TestWilson:
    def test_contains_point_estimate(self):
        low, high = wilson_interval(30, 100)
        assert low < 0.3 < high

    def test_zero_successes_lower_bound_zero(self):
        low, high = wilson_interval(0, 100)
        assert low == 0.0
        assert high > 0.0

    def test_all_successes_upper_bound_one(self):
        low, high = wilson_interval(100, 100)
        assert high == 1.0
        assert low < 1.0

    @pytest.mark.parametrize(
        "successes, trials, low, high",
        [
            # (p + z²/2n ± z·sqrt(p(1 - p)/n + z²/4n²)) / (1 + z²/n) at
            # z = 1.96, worked in 40-digit decimal arithmetic.
            (3, 100, 0.010254338223414805, 0.084520780804026991),
            (50, 100, 0.40382982859014715, 0.59617017140985285),
            (1, 100_000, 1.7652023237775918e-06, 5.6648553653372790e-05),
        ],
    )
    def test_exact_endpoints(self, successes, trials, low, high):
        assert wilson_interval(successes, trials) == pytest.approx(
            (low, high), rel=0, abs=1e-12
        )

    @given(st.integers(1, 10000), st.data())
    def test_interval_well_formed(self, trials, data):
        successes = data.draw(st.integers(0, trials))
        low, high = wilson_interval(successes, trials)
        assert 0.0 <= low <= high <= 1.0

    @given(st.integers(1, 50))
    def test_narrows_with_more_trials(self, successes):
        low_small, high_small = wilson_interval(successes, 100)
        low_big, high_big = wilson_interval(successes * 100, 10000)
        assert (high_big - low_big) < (high_small - low_small)

    def test_validation(self):
        with pytest.raises(AnalysisError):
            wilson_interval(5, 0)
        with pytest.raises(AnalysisError):
            wilson_interval(11, 10)

    def test_negative_z_refused(self):
        # Regression: z=-1 returned (0.458, 0.179), low above high.
        with pytest.raises(AnalysisError, match="z must be >= 0"):
            wilson_interval(3, 10, z=-1.0)
        assert wilson_interval(3, 10, z=0.0) == pytest.approx((0.3, 0.3))


class TestRateEstimate:
    def test_rate(self):
        estimate = RateEstimate(failures=25, trials=100)
        assert estimate.rate == 0.25

    @pytest.mark.parametrize("trials", [0, -5])
    def test_zero_or_negative_trials_rejected_at_construction(self, trials):
        # Regression: this used to construct fine and then raise a bare
        # ZeroDivisionError from .rate; now it fails loudly up front,
        # consistent with wilson_interval.
        with pytest.raises(AnalysisError):
            RateEstimate(failures=0, trials=trials)

    @pytest.mark.parametrize("failures", [-1, 11])
    def test_out_of_range_failures_rejected(self, failures):
        with pytest.raises(AnalysisError):
            RateEstimate(failures=failures, trials=10)

