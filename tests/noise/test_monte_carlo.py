"""Tests for the vectorised Monte-Carlo engine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import library
from repro.core.bitplane import BitplaneState, unpack_words
from repro.core.circuit import Circuit
from repro.noise.model import NoiseModel
from repro.noise.monte_carlo import NoisyRunner, resolve_engine
from repro.errors import SimulationError
from repro.runtime.executor import Executor
from repro.runtime.spec import (
    ExecutionPolicy,
    MajorityMismatchObservable,
    PredicateObservable,
    RunSpec,
    WireMismatchObservable,
)


def estimate(circuit, input_bits, observable, model, trials, seed=None):
    """One spec through the executor: ``(failure_fraction, failures)``."""
    (result,) = Executor().run(
        [
            RunSpec(
                circuit=circuit,
                input_bits=tuple(input_bits),
                observable=observable,
                noise=model,
                trials=trials,
                seed=seed,
            )
        ]
    )
    return result.failure_fraction, result.failures


class TestNoisyRunner:
    def test_zero_noise_is_deterministic(self):
        circuit = Circuit(3).maj(0, 1, 2)
        runner = NoisyRunner(NoiseModel.noiseless(), seed=0)
        result = runner.run_from_input(circuit, (1, 0, 1), trials=50)
        assert (result.states.array == np.array([1, 1, 0], dtype=np.uint8)).all()
        assert not result.fault_counts.any()

    def test_full_noise_randomises(self):
        circuit = Circuit(2).cnot(0, 1)
        runner = NoisyRunner(NoiseModel(gate_error=1.0), seed=0)
        result = runner.run_from_input(circuit, (0, 0), trials=4000)
        assert (result.fault_counts > 0).all()
        # Uniform over 4 patterns: each wire is ~half ones.
        means = result.states.array.mean(axis=0)
        assert np.allclose(means, 0.5, atol=0.05)

    def test_fault_rate_matches_g(self):
        circuit = Circuit(3).maj(0, 1, 2).maj_inv(0, 1, 2)
        runner = NoisyRunner(NoiseModel(gate_error=0.25), seed=1)
        result = runner.run_from_input(circuit, (0, 0, 0), trials=20000)
        mean_faults = result.fault_counts.mean()
        assert mean_faults == pytest.approx(0.5, rel=0.1)

    def test_reset_error_separate(self):
        circuit = Circuit(3).append_reset(0, 1, 2)
        runner = NoisyRunner(
            NoiseModel(gate_error=1.0, reset_error=0.0), seed=2
        )
        result = runner.run_from_input(circuit, (1, 1, 1), trials=100)
        assert (result.states.array == 0).all()

    def test_reset_faults_randomise(self):
        circuit = Circuit(3).append_reset(0, 1, 2)
        runner = NoisyRunner(NoiseModel(gate_error=0.0, reset_error=1.0), seed=3)
        result = runner.run_from_input(circuit, (1, 1, 1), trials=4000)
        assert 0.4 < result.states.array.mean() < 0.6

    def test_seeded_reproducibility(self):
        circuit = Circuit(3).maj(0, 1, 2)
        first = NoisyRunner(NoiseModel(gate_error=0.3), seed=7).run_from_input(
            circuit, (1, 0, 1), 500
        )
        second = NoisyRunner(NoiseModel(gate_error=0.3), seed=7).run_from_input(
            circuit, (1, 0, 1), 500
        )
        assert (first.states.array == second.states.array).all()

    def test_width_mismatch_rejected(self):
        runner = NoisyRunner(NoiseModel.noiseless())
        with pytest.raises(SimulationError):
            runner.run(Circuit(3), BitplaneState.zeros(2, 10))

    def test_generator_can_be_shared(self):
        rng = np.random.default_rng(0)
        runner = NoisyRunner(NoiseModel(gate_error=0.1), seed=rng)
        assert runner.rng is rng

    def test_tiny_rate_faults_no_trial(self):
        # Regression: at g = 1e-18 an INT64_MAX geometric gap overflowed
        # the sampler's running sum into negative fault positions.
        circuit = Circuit(3).maj(0, 1, 2).append_reset(0).maj_inv(0, 1, 2)
        runner = NoisyRunner(NoiseModel(gate_error=1e-18), seed=0)
        result = runner.run_from_input(circuit, (1, 0, 1), trials=1000)
        assert not result.fault_counts.any()
        assert (result.states.array == result.states.array[0]).all()

    def test_zero_trial_batch_has_zero_fault_fraction(self):
        # An empty batch runs without a NumPy warning and reports no
        # faulted trial.
        import warnings

        circuit = Circuit(3).maj(0, 1, 2)
        runner = NoisyRunner(NoiseModel(gate_error=0.5), seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = runner.run(circuit, BitplaneState.zeros(3, 0))
        assert result.trials == 0
        assert result.fault_counts.shape == (0,)


class TestSingleEngine:
    def test_run_from_input_yields_bitplane_states(self):
        circuit = Circuit(3).maj(0, 1, 2)
        result = NoisyRunner(NoiseModel.noiseless(), seed=0).run_from_input(
            circuit, (1, 0, 1), trials=5
        )
        assert isinstance(result.states, BitplaneState)
        assert (result.states.array == np.array([1, 1, 0], dtype=np.uint8)).all()

    def test_run_rejects_batched_state(self):
        runner = NoisyRunner(NoiseModel.noiseless(), seed=0)
        rows = np.zeros((10, 3), dtype=np.uint8)
        with pytest.raises(SimulationError, match="BitplaneState.from_rows"):
            runner.run(Circuit(3).maj(0, 1, 2), rows)

    def test_no_engine_parameter(self):
        with pytest.raises(TypeError):
            NoisyRunner(NoiseModel.noiseless(), engine="bitplane")

    def test_benchmark_compat_names_report_bitplane(self):
        # perfbench/run.py still reads these two names for provenance.
        assert ExecutionPolicy().engine == "bitplane"
        assert resolve_engine(ExecutionPolicy().engine, 100_000) == "bitplane"


class TestEstimation:
    def test_estimate_counts_failures(self):
        circuit = Circuit(3).maj(0, 1, 2)
        rate, count = estimate(
            circuit,
            (1, 0, 1),
            WireMismatchObservable((0, 1, 2), library.MAJ.apply((1, 0, 1))),
            NoiseModel.noiseless(),
            trials=100,
            seed=0,
        )
        assert rate == 0.0 and count == 0

    def test_estimate_with_noise_is_positive(self):
        circuit = Circuit(3).maj(0, 1, 2)
        rate, count = estimate(
            circuit,
            (1, 0, 1),
            WireMismatchObservable((0, 1, 2), library.MAJ.apply((1, 0, 1))),
            NoiseModel(gate_error=0.5),
            trials=2000,
            seed=0,
        )
        # Half the trials fault; 7/8 of faults corrupt the state.
        assert rate == pytest.approx(0.5 * 7 / 8, rel=0.15)

    def test_predicate_shape_validated(self):
        circuit = Circuit(1).x(0)
        with pytest.raises(SimulationError):
            estimate(
                circuit,
                (0,),
                PredicateObservable(lambda states: np.zeros((2, 2), dtype=bool)),
                NoiseModel.noiseless(),
                trials=10,
            )

    def test_repetition_predicate(self):
        observable = MajorityMismatchObservable((0, 1, 2), expected=1)
        states = BitplaneState.from_rows([(1, 1, 0), (0, 0, 1), (1, 1, 1)])
        plane = observable.failure_plane(states)
        assert unpack_words(plane, 3).tolist() == [0, 1, 0]
