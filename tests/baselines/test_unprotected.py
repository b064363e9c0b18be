"""Tests for the unprotected baseline."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.baselines.unprotected import (
    identity_module,
    largest_reliable_module,
    module_error,
    module_error_linear,
    simulate_unprotected,
)
from repro.core.simulator import run
from repro.core.truth_table import circuit_permutation
from repro.errors import AnalysisError


class TestFormulas:
    def test_module_error_values(self):
        assert module_error(0.0, 100) == 0.0
        assert module_error(1.0, 1) == 1.0
        assert module_error(1e-3, 1000) == pytest.approx(1 - (1 - 1e-3) ** 1000)

    @given(st.floats(1e-6, 0.01), st.integers(1, 1000))
    def test_linear_approximation_dominates(self, g, T):
        assert module_error(g, T) <= module_error_linear(g, T) + 1e-12

    def test_paper_narrative(self):
        # g ~ 1e-3: modules beyond ~1000 gates are almost certainly bad.
        assert module_error(1e-3, 1000) > 0.6
        assert largest_reliable_module(1e-3) == pytest.approx(693, rel=0.01)

    def test_validation(self):
        with pytest.raises(AnalysisError):
            module_error(2.0, 10)
        with pytest.raises(AnalysisError):
            largest_reliable_module(0.0)

    @pytest.mark.parametrize(
        "formula,match",
        [
            (lambda: module_error(1e-3, -1), "module size"),
            (lambda: module_error_linear(1.5, 10), "gate error"),
            (lambda: largest_reliable_module(1e-3, target_error=1.0), "target error"),
        ],
        ids=["negative-size", "linear-rate", "target"],
    )
    def test_each_argument_validated(self, formula, match):
        with pytest.raises(AnalysisError, match=match):
            formula()


class TestIdentityModule:
    def test_action_is_identity(self):
        circuit = identity_module(10, n_wires=4)
        assert circuit_permutation(circuit) == tuple(range(16))

    def test_gate_count(self):
        assert len(identity_module(12)) == 12

    def test_odd_count_rejected(self):
        with pytest.raises(AnalysisError):
            identity_module(7)

    def test_narrow_circuit_rejected(self):
        with pytest.raises(AnalysisError):
            identity_module(4, n_wires=2)

    def test_runs_to_identity(self):
        circuit = identity_module(20, n_wires=5)
        assert run(circuit, (1, 0, 1, 0, 1)) == (1, 0, 1, 0, 1)


class TestSimulation:
    def test_zero_noise_never_fails(self):
        assert simulate_unprotected(0.0, 100, trials=200, seed=0) == 0.0

    def test_matches_formula_within_tolerance(self):
        g, T = 2e-3, 200
        measured = simulate_unprotected(g, T, trials=20000, seed=1)
        predicted = module_error(g, T)
        # Randomising faults are sometimes silent, so measured sits a
        # bit below the all-faults-visible prediction.
        assert 0.5 * predicted < measured <= predicted * 1.05

    def test_monotone_in_g(self):
        low = simulate_unprotected(1e-3, 100, trials=20000, seed=2)
        high = simulate_unprotected(1e-2, 100, trials=20000, seed=2)
        assert high > low
