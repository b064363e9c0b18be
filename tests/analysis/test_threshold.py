"""Tests for the threshold formulas (Eq. 1)."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.threshold import (
    PAPER_SCHEMES,
    bit_error_bound,
    bit_error_quadratic_bound,
    improves,
    logical_error_bound,
    logical_error_bound_tight,
    threshold,
    threshold_denominator,
)
from repro.errors import AnalysisError


class TestPaperValues:
    @pytest.mark.parametrize(
        "operations,denominator",
        [(9, 108), (11, 165), (14, 273), (16, 360), (38, 2109), (40, 2340)],
    )
    def test_all_six_thresholds(self, operations, denominator):
        assert threshold_denominator(operations) == denominator
        assert threshold(operations) == pytest.approx(1.0 / denominator)

    def test_registry_consistent(self):
        for scheme in PAPER_SCHEMES.values():
            assert scheme.matches_paper()

    def test_registry_covers_all_variants(self):
        names = set(PAPER_SCHEMES)
        assert names == {
            "nonlocal_with_init",
            "nonlocal_no_init",
            "local_2d_with_init",
            "local_2d_no_init",
            "local_1d_with_init",
            "local_1d_no_init",
        }


class TestBounds:
    @given(st.floats(1e-6, 0.2), st.integers(3, 40))
    def test_quadratic_bound_dominates_exact_tail(self, g, G):
        assert bit_error_bound(g, G) <= bit_error_quadratic_bound(g, G) + 1e-12

    @given(st.floats(1e-6, 0.3), st.integers(3, 40))
    def test_logical_bound_is_three_times_quadratic(self, g, G):
        assert logical_error_bound(g, G) == pytest.approx(
            3 * bit_error_quadratic_bound(g, G)
        )

    @given(st.floats(1e-6, 0.2), st.integers(3, 40))
    def test_tight_bound_below_working_bound(self, g, G):
        assert logical_error_bound_tight(g, G) <= logical_error_bound(g, G) + 1e-12

    def test_tight_bound_exact_value(self):
        # g = 0.1, G = 3: P_bit = 1 - 0.9**3 - 3 * 0.1 * 0.9**2
        # = 1 - 0.729 - 0.243 = 0.028, and 1 - (1 - 0.028)**3
        # = 1 - 0.918330048 = 0.081669952.
        assert bit_error_bound(0.1, 3) == pytest.approx(0.028, rel=0, abs=1e-12)
        assert logical_error_bound_tight(0.1, 3) == pytest.approx(
            0.081669952, rel=0, abs=1e-12
        )

    def test_improvement_exactly_below_threshold(self):
        rho = threshold(9)
        assert improves(rho * 0.99, 9)
        assert not improves(rho, 9)
        assert not improves(rho * 1.5, 9)

    @given(st.integers(2, 60))
    def test_threshold_is_fixed_point_scale(self, G):
        # At g = rho the bound gives exactly g back.
        rho = threshold(G)
        assert logical_error_bound(rho, G) == pytest.approx(rho)


class TestValidation:
    def test_small_operation_counts_rejected(self):
        with pytest.raises(AnalysisError):
            threshold(1)
        with pytest.raises(AnalysisError):
            threshold_denominator(0)

    def test_rates_validated(self):
        with pytest.raises(AnalysisError):
            logical_error_bound(1.5, 9)
        with pytest.raises(AnalysisError):
            bit_error_bound(-0.1, 9)
