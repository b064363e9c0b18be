"""Tests for the overhead analysis (Section 2.3)."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.blowup import (
    achievable_module_size,
    bit_blowup,
    bit_overhead_exponent,
    gate_blowup,
    gate_overhead_exponent,
    plan_module,
    required_level,
    required_level_exact,
    unprotected_module_limit,
)
from repro.analysis.threshold import threshold
from repro.errors import AnalysisError


class TestFactors:
    def test_gate_blowup_values(self):
        assert gate_blowup(9, 0) == 1
        assert gate_blowup(9, 1) == 21
        assert gate_blowup(9, 2) == 441
        assert gate_blowup(11, 2) == 729

    def test_bit_blowup_values(self):
        assert bit_blowup(0) == 1
        assert bit_blowup(2) == 81

    def test_exponents(self):
        assert gate_overhead_exponent(11) == pytest.approx(4.75, abs=0.01)
        assert bit_overhead_exponent() == pytest.approx(3.17, abs=0.01)

    @given(st.integers(3, 40), st.integers(0, 6))
    def test_gate_blowup_is_multiplicative(self, G, level):
        assert gate_blowup(G, level + 1) == gate_blowup(G, level) * gate_blowup(G, 1)

    def test_validation(self):
        with pytest.raises(AnalysisError):
            gate_blowup(2, 1)
        with pytest.raises(AnalysisError):
            bit_blowup(-1)

    def test_overhead_exponent_needs_three_operations(self):
        # log2(3(G - 2)) is undefined below G = 3.
        with pytest.raises(AnalysisError, match=">= 3"):
            gate_overhead_exponent(2)


class TestRequiredLevel:
    def test_paper_worked_example(self):
        rho = threshold(9)
        exact = required_level_exact(rho / 10, 9, 10**6)
        assert exact == pytest.approx(2.0, abs=0.02)
        assert required_level(rho / 10, 9, 10**6) == 2

    def test_plan_module_reproduces_example(self):
        rho = threshold(9)
        report = plan_module(rho / 10, 9, 10**6)
        assert (report.level, report.gate_factor, report.bit_factor) == (2, 441, 81)
        assert report.total_gates == 441 * 10**6

    def test_easy_targets_need_level_zero(self):
        rho = threshold(9)
        # A module small enough that bare gates suffice.
        assert required_level(rho / 100, 9, 10) == 0

    @given(st.integers(2, 12))
    def test_level_suffices(self, exponent):
        """The chosen level really does push g_L below 1/T."""
        g, G = threshold(9) / 10, 9
        module_gates = 10**exponent
        level = required_level(g, G, module_gates)
        from repro.analysis.recursion import error_at_level

        assert error_at_level(g, G, level) <= 1.0 / module_gates * (1 + 1e-9)

    def test_above_threshold_rejected(self):
        with pytest.raises(AnalysisError):
            required_level(0.5, 9, 100)

    def test_module_size_validated(self):
        with pytest.raises(AnalysisError):
            required_level(1e-4, 9, 0)


class TestAchievableSize:
    def test_inverse_of_error_at_level(self):
        g, G = threshold(9) / 10, 9
        from repro.analysis.recursion import error_at_level

        for level in range(3):
            size = achievable_module_size(g, G, level)
            assert size == pytest.approx(1.0 / error_at_level(g, G, level))

    def test_paper_narrative_numbers(self):
        """'Rather than 1,000 logical gates... 10^6 logical gates.'"""
        g, G = threshold(9) / 10, 9
        assert achievable_module_size(g, G, 0) == pytest.approx(1080.0, rel=1e-6)
        assert achievable_module_size(g, G, 2) >= 10**6


    def test_above_threshold_rejected(self):
        with pytest.raises(AnalysisError, match="rho"):
            achievable_module_size(threshold(9), 9, 1)


class TestUnprotected:
    def test_limit_is_about_one_over_g(self):
        assert unprotected_module_limit(1e-3) == pytest.approx(1000.0)

    def test_validation(self):
        with pytest.raises(AnalysisError):
            unprotected_module_limit(0.0)
