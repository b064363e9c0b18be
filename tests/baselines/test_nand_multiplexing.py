"""Tests for the von Neumann NAND multiplexing baseline."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.threshold import threshold
from repro.baselines.nand_multiplexing import (
    BundleSimulator,
    critical_epsilon,
    degrades,
    iterate_units,
    monte_carlo_degrades,
    multiplexed_unit_fraction,
    nand_stage_fraction,
)
from repro.errors import AnalysisError


class TestStageMap:
    def test_noiseless_nand_of_clean_bundles(self):
        assert nand_stage_fraction(1.0, 1.0, 0.0) == 0.0
        assert nand_stage_fraction(0.0, 0.0, 0.0) == 1.0
        assert nand_stage_fraction(1.0, 0.0, 0.0) == 1.0

    def test_gate_flips_invert(self):
        assert nand_stage_fraction(1.0, 1.0, 1.0) == 1.0

    @given(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1))
    def test_output_fraction_in_range(self, a, b, eps):
        assert 0.0 <= nand_stage_fraction(a, b, eps) <= 1.0

    def test_validation(self):
        with pytest.raises(AnalysisError):
            nand_stage_fraction(0.5, 0.5, -0.1)


class TestDeterministicThreshold:
    def test_clean_signal_survives_low_noise(self):
        assert not degrades(0.01)

    def test_signal_lost_at_high_noise(self):
        assert degrades(0.2)

    def test_critical_epsilon_same_order_as_paper(self):
        # The paper quotes "about 11%" for NAND multiplexing; our
        # deterministic-limit model lands in the same decade.
        eps = critical_epsilon()
        assert 0.05 < eps < 0.15

    def test_order_of_magnitude_above_reversible(self):
        # The irreversible baseline tolerates ~10x the noise of the
        # best reversible scheme — the comparison the paper draws.
        assert critical_epsilon() / threshold(9) > 5

    def test_unit_restores_toward_nominal_below_threshold(self):
        eps = 0.02
        trajectory = iterate_units(0.9, eps, 30)
        # Error relative to alternating nominal decays.
        final = trajectory[-1]
        assert final > 0.9 or final < 0.1

    @pytest.mark.parametrize(
        "bracket,match",
        [((0.0, 0.05), "no degradation"), ((0.2, 0.25), "already")],
        ids=["upper-too-low", "lower-too-high"],
    )
    def test_critical_epsilon_needs_a_bracketing_interval(self, bracket, match):
        with pytest.raises(AnalysisError, match=match):
            critical_epsilon(*bracket)

    def test_unit_fraction_in_range(self):
        assert 0.0 <= multiplexed_unit_fraction(0.7, 0.7, 0.05) <= 1.0


class TestMonteCarlo:
    def test_finite_bundle_agrees_below_threshold(self):
        assert not monte_carlo_degrades(0.02, bundle_size=2000, units=20, seed=0)

    def test_finite_bundle_agrees_above_threshold(self):
        assert monte_carlo_degrades(0.2, bundle_size=2000, units=20, seed=0)

    def test_bundle_construction(self):
        simulator = BundleSimulator.create(100, 0.0, seed=0)
        bundle = simulator.bundle(1, error_fraction=0.1)
        assert bundle.sum() == 90

    def test_bundle_validation(self):
        simulator = BundleSimulator.create(10, 0.0, seed=0)
        with pytest.raises(AnalysisError):
            simulator.bundle(2)
        with pytest.raises(AnalysisError):
            BundleSimulator.create(0, 0.1)

    def test_nand_stage_computes_nand(self):
        import numpy as np

        simulator = BundleSimulator.create(64, 0.0, seed=0)
        ones = simulator.bundle(1)
        zeros = simulator.bundle(0)
        assert (simulator.nand_stage(ones, ones) == 0).all()
        assert (simulator.nand_stage(ones, zeros) == 1).all()

    @settings(max_examples=10, deadline=None)
    @given(st.floats(0.0, 0.05))
    def test_run_chain_margin_positive_below_threshold(self, eps):
        simulator = BundleSimulator.create(1500, eps, seed=3)
        assert simulator.run_chain(10) > 0.1
