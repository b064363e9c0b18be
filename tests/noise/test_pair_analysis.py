"""Tests for the exact fault-pair analysis."""

from __future__ import annotations

import pytest

from repro.coding.concatenation import recovery_circuit
from repro.coding.recovery import OUTPUT_WIRES
from repro.core.circuit import Circuit
from repro.noise.model import NoiseModel
from repro.noise.monte_carlo import NoisyRunner
from repro.noise.pair_analysis import (
    analyse_one_d_cycle,
    analyse_pairs,
    analyse_recovery_cycle,
)
from repro.errors import AnalysisError


class TestRecoveryCycle:
    def test_no_harmful_single_faults(self):
        """The linear term vanishes — the fault-tolerance property."""
        analysis = analyse_recovery_cycle()
        assert analysis.harmful_single_faults == 0

    def test_pair_census_shape(self):
        analysis = analyse_recovery_cycle()
        assert analysis.operations == 8
        assert analysis.pair_count == 28

    def test_exact_coefficient_below_paper_bound(self):
        """Most pairs are harmless: c2 << 3 C(E,2)."""
        analysis = analyse_recovery_cycle()
        assert 0 < analysis.quadratic_coefficient < analysis.paper_bound_coefficient()

    def test_exact_threshold_above_paper_threshold(self):
        """'A tighter bound will result in an improved error threshold.'"""
        analysis = analyse_recovery_cycle()
        assert analysis.exact_threshold > 1.0 / 108.0

    def test_without_resets_fewer_pairs(self):
        with_init = analyse_recovery_cycle(include_resets=True)
        without = analyse_recovery_cycle(include_resets=False)
        assert without.operations == 6
        assert without.pair_count < with_init.pair_count


class TestOneDCycle:
    def test_no_harmful_single_faults(self):
        analysis = analyse_one_d_cycle()
        assert analysis.harmful_single_faults == 0

    def test_one_d_weaker_than_nonlocal(self):
        """Routing adds fault pairs: the 1D cycle has a larger c2."""
        one_d = analyse_one_d_cycle()
        nonlocal_ = analyse_recovery_cycle()
        assert one_d.quadratic_coefficient > nonlocal_.quadratic_coefficient
        assert one_d.exact_threshold < nonlocal_.exact_threshold


class TestAgainstMonteCarlo:
    def test_quadratic_prediction_matches_measured_rate(self):
        """c2 g^2 predicts the measured cycle failure at small g."""
        analysis = analyse_recovery_cycle()
        g = 1e-2  # ~90 expected failure events at this trial budget
        circuit = recovery_circuit()
        trials = 400000
        runner = NoisyRunner(NoiseModel(gate_error=g), seed=17)
        result = runner.run_from_input(circuit, (1, 1, 1) + (0,) * 6, trials)
        failures = float((result.states.majority_of(OUTPUT_WIRES) != 1).mean())
        predicted = analysis.quadratic_coefficient * g * g
        assert failures == pytest.approx(predicted, rel=0.4)


class TestUnprotectedCircuit:
    def test_single_faults_harmful_without_protection(self):
        """A bare majority-vote circuit fails at first order."""
        circuit = Circuit(9).maj(0, 1, 2)
        analysis = analyse_pairs(
            circuit, (1, 1, 1) + (0,) * 6, (0, 1, 2), expected_logical=1
        )
        assert analysis.harmful_single_faults > 0

    def test_threshold_requires_harmful_pairs(self):
        # An identity circuit never fails; exact_threshold is undefined.
        circuit = Circuit(9).swap(3, 4)
        analysis = analyse_pairs(
            circuit, (1, 1, 1) + (0,) * 6, (0, 1, 2), expected_logical=1
        )
        assert analysis.harmful_pair_weight == 0.0
        with pytest.raises(AnalysisError):
            _ = analysis.exact_threshold
