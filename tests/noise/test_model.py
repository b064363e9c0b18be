"""Unit tests for repro.noise.model."""

from __future__ import annotations

import pytest

from repro.noise.model import NoiseModel
from repro.errors import SimulationError


class TestNoiseModel:
    def test_reset_error_defaults_to_gate_error(self):
        model = NoiseModel(gate_error=0.01)
        assert model.effective_reset_error == 0.01

    def test_accurate_initialisation(self):
        model = NoiseModel(gate_error=0.01, reset_error=0.0)
        assert model.effective_reset_error == 0.0

    def test_explicit_reset_error(self):
        model = NoiseModel(gate_error=0.01, reset_error=0.5)
        assert model.effective_reset_error == 0.5

    def test_rejects_bad_gate_error(self):
        with pytest.raises(SimulationError):
            NoiseModel(gate_error=1.5)
        with pytest.raises(SimulationError):
            NoiseModel(gate_error=-0.1)

    def test_rejects_bad_reset_error(self):
        with pytest.raises(SimulationError):
            NoiseModel(gate_error=0.1, reset_error=2.0)

    def test_scaled(self):
        model = NoiseModel(gate_error=0.2, reset_error=0.1).scaled(0.5)
        assert model.gate_error == pytest.approx(0.1)
        assert model.reset_error == pytest.approx(0.05)

    def test_scaled_preserves_inherited_reset(self):
        model = NoiseModel(gate_error=0.2).scaled(0.5)
        assert model.reset_error is None
        assert model.effective_reset_error == pytest.approx(0.1)

    def test_noiseless(self):
        model = NoiseModel.noiseless()
        assert model.gate_error == 0.0
        assert model.effective_reset_error == 0.0
