"""Tests for the entropy dissipation analysis (Section 4)."""

from __future__ import annotations

from math import log2, sqrt

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.entropy import (
    BOLTZMANN_J_PER_K,
    KAPPA,
    binary_entropy,
    empirical_entropy,
    empirical_entropy_from_columns,
    entropy_lower_bound,
    entropy_upper_bound,
    landauer_heat_joules,
    max_level_for_constant_entropy,
    single_gate_entropy,
    single_gate_entropy_sqrt_bound,
)
from repro.errors import AnalysisError


class TestBinaryEntropy:
    def test_endpoints(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_maximum_at_half(self):
        assert binary_entropy(0.5) == pytest.approx(1.0)

    @given(st.floats(0.0, 1.0))
    def test_symmetry(self, p):
        assert binary_entropy(p) == pytest.approx(binary_entropy(1 - p), abs=1e-12)

    def test_validation(self):
        with pytest.raises(AnalysisError):
            binary_entropy(1.5)


class TestKappa:
    def test_definition(self):
        assert KAPPA == pytest.approx(2 * sqrt(7 / 8) + (7 / 8) * log2(7))
        assert KAPPA == pytest.approx(4.327, abs=5e-4)

    @given(st.floats(1e-9, 1.0))
    def test_sqrt_bound_dominates_exact_entropy(self, g):
        # H(7g/8) + (7g/8) log2 7 <= kappa sqrt(g).
        assert single_gate_entropy(g) <= single_gate_entropy_sqrt_bound(g) + 1e-12

    def test_single_gate_entropy_increasing_in_g(self):
        values = [single_gate_entropy(g) for g in (1e-4, 1e-3, 1e-2, 1e-1)]
        assert all(b > a for a, b in zip(values, values[1:]))


class TestLevelBounds:
    def test_upper_bound_formula(self):
        assert entropy_upper_bound(1e-2, 24, 2) == pytest.approx(
            24**2 * KAPPA * 0.1
        )

    def test_lower_bound_formula(self):
        assert entropy_lower_bound(1e-2, 11, 3) == pytest.approx(1e-2 * 33**2)

    @given(st.floats(1e-8, 1.0), st.integers(1, 5))
    def test_sandwich_orders_correctly(self, g, level):
        lower = entropy_lower_bound(g, 11, level)
        upper = entropy_upper_bound(g, 3 * 11, level)
        assert lower <= upper + 1e-12

    def test_lower_bound_needs_level_one(self):
        with pytest.raises(AnalysisError):
            entropy_lower_bound(1e-2, 11, 0)

    def test_paper_example_level_limit(self):
        assert max_level_for_constant_entropy(1e-2, 11) == pytest.approx(
            2.317, abs=2e-3
        )

    def test_level_limit_grows_as_noise_shrinks(self):
        # O(log 1/g) levels stay affordable.
        assert max_level_for_constant_entropy(1e-6, 11) > max_level_for_constant_entropy(
            1e-2, 11
        )

    def test_noiseless_rejected(self):
        with pytest.raises(AnalysisError):
            max_level_for_constant_entropy(0.0, 11)

    @pytest.mark.parametrize(
        "bound,match",
        [
            (lambda: entropy_upper_bound(1e-2, 0, 2), "gates_per_level"),
            (lambda: entropy_upper_bound(1.5, 24, 2), r"\[0, 1\]"),
            (lambda: entropy_upper_bound(1e-2, 24, -1), "level must be >= 0"),
            (lambda: entropy_lower_bound(1e-2, 0, 2), "recovery_ops"),
            (lambda: max_level_for_constant_entropy(1e-2, 0), "recovery_ops"),
        ],
        ids=["gates-per-level", "rate", "level", "lower-ops", "max-level-ops"],
    )
    def test_out_of_domain_arguments_rejected(self, bound, match):
        with pytest.raises(AnalysisError, match=match):
            bound()


class TestLandauer:
    def test_one_bit_at_room_temperature(self):
        joules = landauer_heat_joules(1.0, 300.0)
        assert joules == pytest.approx(BOLTZMANN_J_PER_K * 300.0 * np.log(2))

    def test_linear_in_bits(self):
        assert landauer_heat_joules(2.0, 300.0) == pytest.approx(
            2 * landauer_heat_joules(1.0, 300.0)
        )

    def test_validation(self):
        with pytest.raises(AnalysisError):
            landauer_heat_joules(-1.0, 300.0)
        with pytest.raises(AnalysisError):
            landauer_heat_joules(1.0, 0.0)


class TestEmpiricalEntropy:
    def test_deterministic_samples_have_zero_entropy(self):
        assert empirical_entropy([(0, 1)] * 10) == 0.0

    def test_uniform_two_outcomes(self):
        assert empirical_entropy([(0,), (1,)] * 50) == pytest.approx(1.0)

    def test_paper_discard_distribution(self):
        # The (1/2, 1/4, 1/4) distribution behind the 3/2-bit optimum.
        samples = [(1, 1)] * 2 + [(1, 0)] + [(0, 1)]
        assert empirical_entropy(samples) == pytest.approx(1.5)

    def test_empty_rejected(self):
        with pytest.raises(AnalysisError):
            empirical_entropy([])

    def test_columns_variant_matches_tuple_variant(self, rng):
        array = rng.integers(0, 2, size=(200, 3)).astype(np.uint8)
        as_tuples = [tuple(row) for row in array]
        assert empirical_entropy_from_columns(array) == pytest.approx(
            empirical_entropy(as_tuples)
        )

    def test_columns_requires_2d(self):
        with pytest.raises(AnalysisError):
            empirical_entropy_from_columns(np.zeros(5))
