"""Tests for the concatenation recursion and Table 2."""

from __future__ import annotations

import sys

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.analysis.recursion import (
    PAPER_TABLE_2,
    error_at_level,
    iterate_levels,
    mixed_error_at_level,
    mixed_threshold,
    one_level,
    strip_width,
    table2_rows,
)
from repro.analysis.threshold import threshold
from repro.errors import AnalysisError


class TestRecursion:
    def test_one_level_matches_formula(self):
        assert one_level(1e-3, 9) == pytest.approx(108 * 1e-6)

    def test_one_level_caps_at_one(self):
        assert one_level(0.9, 40) == 1.0

    @given(st.floats(1e-8, 1.0), st.integers(3, 40), st.integers(0, 6))
    @example(g=0.024816356009449075, G=6, levels=5)
    def test_closed_form_bounds_iteration(self, g, G, levels):
        # The two forms round differently: near 0.76 they differ by a
        # few ulp, so the slack is relative.  Subnormal results (deep
        # levels at tiny g) carry no relative precision, hence the
        # floor at the smallest normal float.
        iterated = iterate_levels(g, G, levels)[-1]
        closed = error_at_level(g, G, levels)
        assert iterated <= closed * (1 + 1e-12) + sys.float_info.min

    def test_closed_form_exact_without_capping(self):
        g, G = 1e-4, 9
        for level in range(4):
            iterated = iterate_levels(g, G, level)[-1]
            assert iterated == pytest.approx(error_at_level(g, G, level))

    @given(st.integers(3, 40), st.integers(0, 8))
    def test_threshold_is_a_fixed_point(self, G, level):
        rho = threshold(G)
        assert error_at_level(rho, G, level) == pytest.approx(rho)

    def test_below_threshold_error_collapses(self):
        g = threshold(9) / 10
        rates = iterate_levels(g, 9, 4)
        assert all(b < a for a, b in zip(rates, rates[1:]))
        assert rates[-1] < 1e-12

    def test_above_threshold_error_grows(self):
        g = threshold(9) * 2
        assert error_at_level(g, 9, 3) > g

    def test_negative_level_rejected(self):
        with pytest.raises(AnalysisError):
            error_at_level(1e-3, 9, -1)
        with pytest.raises(AnalysisError):
            iterate_levels(1e-3, 9, -1)


class TestMixedThresholds:
    def test_k_zero_gives_weak_threshold(self):
        assert mixed_threshold(0.001, 0.01, 0) == pytest.approx(0.001)

    def test_large_k_approaches_strong_threshold(self):
        assert mixed_threshold(0.001, 0.01, 20) == pytest.approx(0.01, rel=1e-3)

    @given(st.integers(0, 10))
    def test_monotone_in_k(self, k):
        assert mixed_threshold(0.001, 0.01, k + 1) >= mixed_threshold(0.001, 0.01, k)

    def test_validation(self):
        with pytest.raises(AnalysisError):
            mixed_threshold(0.01, 0.001, 1)  # low > high
        with pytest.raises(AnalysisError):
            mixed_threshold(0.001, 0.01, -1)

    def test_mixed_error_consistency(self):
        # With inner_levels = 0, the mixed scheme is pure weak scheme.
        g = 1e-4
        rho1, rho2 = 1 / 2109, 1 / 273
        pure = error_at_level(g, 38, 3)
        mixed = mixed_error_at_level(g, rho1, rho2, 0, 3)
        assert mixed == pytest.approx(pure, rel=1e-9)

    def test_mixed_error_validates_levels(self):
        with pytest.raises(AnalysisError):
            mixed_error_at_level(1e-4, 1 / 2109, 1 / 273, 3, 2)


class TestTable2:
    def test_widths_are_powers_of_three(self):
        for row, (k, width, _) in zip(table2_rows(), PAPER_TABLE_2):
            assert row.width == width == 3**k
            assert strip_width(k) == width

    def test_ratios_match_paper_to_two_decimals(self):
        for row, (_, _, paper_ratio) in zip(table2_rows(), PAPER_TABLE_2):
            assert row.threshold_ratio == pytest.approx(paper_ratio, abs=0.005)

    def test_default_thresholds_are_no_init_values(self):
        rows = table2_rows()
        assert rows[0].threshold_ratio == pytest.approx(273 / 2109, rel=1e-9)

    def test_abstract_claim_27_wide_within_23_percent(self):
        ratio = table2_rows()[3].threshold_ratio
        assert 1 - ratio == pytest.approx(0.23, abs=0.005)

    def test_strip_width_validation(self):
        with pytest.raises(AnalysisError):
            strip_width(-1)
