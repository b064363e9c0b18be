"""End-to-end integration across subsystems."""

from __future__ import annotations

import pytest

from repro.analysis.recursion import error_at_level
from repro.analysis.threshold import logical_error_bound, threshold
from repro.coding.logical import LogicalProcessor
from repro.core import library
from repro.core.simulator import run
from repro.harness.stats import RateEstimate
from repro.harness.threshold_finder import measure_cycle_errors
from repro.local import circuit_is_local, one_d_lattice, one_d_recovery_circuit
from repro.noise.model import NoiseModel
from repro.noise.monte_carlo import NoisyRunner
from tests.conftest import reference_decode_failures


class TestMeasuredErrorRespectsAnalyticBound:
    def test_level_one_error_below_eq1_bound(self):
        """Eq. 1 upper-bounds the measured per-cycle logical error."""
        g = 4e-3
        trials = 60000
        rate, failures = measure_cycle_errors(((g, 81),), trials)[0]
        bound = logical_error_bound(g, 11)
        estimate = RateEstimate(failures=failures, trials=trials)
        # The Wilson interval's lower edge must not exceed the bound.
        assert estimate.interval[0] / (2 * 1) <= bound
        assert rate <= bound

    def test_suppression_consistent_with_recursion(self):
        """Measured level-1 rate is within the Eq. 2 envelope."""
        g = 5e-3
        rate, _ = measure_cycle_errors(((g, 82),), trials=60000)[0]
        assert rate <= error_at_level(g, 11, 1)
        assert rate < g  # below threshold, one level helps


class TestConcatenationEndToEnd:
    def test_level2_identity_storage_under_noise(self):
        """A level-2 coded bit survives a gate cycle at g near rho/2."""
        g = threshold(9) / 2
        computation = LogicalProcessor(3, level=2)
        physical = computation.physical_input((1, 1, 1))
        computation.apply(library.MAJ, 0, 1, 2)
        runner = NoisyRunner(NoiseModel(gate_error=g, reset_error=0.0), seed=83)
        result = runner.run_from_input(computation.circuit, physical, trials=4000)
        failures = reference_decode_failures(
            computation, result.states, library.MAJ.apply((1, 1, 1))
        )
        assert failures / 4000 < 0.05

    def test_noiseless_deep_circuit_is_exact(self):
        computation = LogicalProcessor(3, level=2)
        physical = computation.physical_input((0, 1, 1))
        for _ in range(2):
            computation.apply(library.MAJ, 0, 1, 2)
            computation.apply(library.MAJ_INV, 0, 1, 2)
        output = run(computation.circuit, physical)
        assert computation.decode_output(output) == (0, 1, 1)


class TestLocalPipelines:
    def test_one_d_recovery_composes_with_logical_storage(self):
        """Store a logical bit through many local 1D cycles under noise."""
        circuit = one_d_recovery_circuit(cycles=8)
        assert circuit_is_local(circuit, one_d_lattice())
        state = [0] * 9
        for position in (0, 3, 6):
            state[position] = 1
        runner = NoisyRunner(NoiseModel(gate_error=1e-3), seed=84)
        result = runner.run_from_input(circuit, tuple(state), trials=20000)
        survived = result.states.majority_of((0, 3, 6))
        assert survived.mean() > 0.995

    def test_storage_fails_above_threshold(self):
        circuit = one_d_recovery_circuit(cycles=40)
        state = [0] * 9
        for position in (0, 3, 6):
            state[position] = 1
        runner = NoisyRunner(NoiseModel(gate_error=0.15), seed=85)
        result = runner.run_from_input(circuit, tuple(state), trials=3000)
        survived = result.states.majority_of((0, 3, 6))
        # Far above threshold, after many cycles the logical value is
        # fully randomised.
        assert 0.35 < survived.mean() < 0.65


class TestMixedSchemesStory:
    def test_mixed_threshold_interpolates_measured_thresholds(self):
        """rho(k) sits between the 1D and 2D analytic thresholds."""
        from repro.analysis.recursion import mixed_threshold

        rho_1d, rho_2d = threshold(38), threshold(14)
        for k in range(6):
            rho_k = mixed_threshold(rho_1d, rho_2d, k)
            assert rho_1d <= rho_k <= rho_2d
