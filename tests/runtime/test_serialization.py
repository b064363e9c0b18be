"""Tests for the RunSpec JSON wire form."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.coding.logical import LogicalProcessor
from repro.core import library
from repro.core.circuit import Circuit
from repro.errors import SerializationError
from repro.harness.threshold_finder import cycle_error_specs
from repro.noise.model import NoiseModel
from repro.runtime import (
    Executor,
    ExecutionPolicy,
    PredicateObservable,
    RunSpec,
    SPEC_FORMAT_VERSION,
    spec_from_json,
    spec_to_json,
)
from repro.runtime.executor import _group_key
from repro.runtime.serialization import (
    circuit_from_json,
    circuit_to_json,
    noise_from_json,
    noise_to_json,
)


def no_failures(states):
    """Module-level predicate, importable by name."""
    return np.zeros(states.trials, dtype=bool)


def _maj_circuit() -> Circuit:
    return Circuit(3, name="maj").cnot(0, 1).cnot(0, 2).toffoli(1, 2, 0)


def _roundtrip(spec: RunSpec) -> RunSpec:
    # Through actual JSON text, not just dicts: the wire form must
    # survive what a manifest file does to it.
    return spec_from_json(json.loads(json.dumps(spec_to_json(spec))))


class TestCircuitRoundTrip:
    def test_preserves_content_key_and_equality(self):
        circuit = _maj_circuit()
        rebuilt = circuit_from_json(circuit_to_json(circuit))
        assert rebuilt == circuit
        assert rebuilt.content_key() == circuit.content_key()

    def test_resets_round_trip(self):
        circuit = Circuit(4).cnot(0, 1)
        circuit.append_reset(1, 2, value=1)
        rebuilt = circuit_from_json(circuit_to_json(circuit))
        assert rebuilt == circuit

    def test_gate_tables_deduplicated(self):
        circuit = Circuit(3)
        for _ in range(5):
            circuit.cnot(0, 1)
        data = circuit_to_json(circuit)
        assert len(data["gates"]) == 1
        assert len(data["ops"]) == 5


class TestNoiseRoundTrip:
    @pytest.mark.parametrize("reset_error", [None, 0.0, 2e-4])
    def test_round_trip(self, reset_error):
        noise = NoiseModel(gate_error=1e-3, reset_error=reset_error)
        assert noise_from_json(noise_to_json(noise)) == noise


class TestSpecRoundTrip:
    def test_cycle_spec_round_trip_equality(self):
        # The real threshold-pipeline spec: circuit + DecodeObservable
        # wrapping a LogicalProcessor.  Round trip must preserve value
        # equality AND content-key grouping (the executor would batch
        # the rebuilt spec with the original).
        (spec,) = cycle_error_specs(((2e-3, 11),), 2000, cycles=1)
        rebuilt = _roundtrip(spec)
        assert rebuilt == spec
        assert rebuilt.circuit.content_key() == spec.circuit.content_key()
        assert _group_key(rebuilt) == _group_key(spec)

    def test_rebuilt_spec_runs_bit_identical(self):
        specs = cycle_error_specs(((3e-3, 5), (6e-3, 6)), 2000, cycles=1)
        policy = ExecutionPolicy()
        original = Executor(policy).run(specs)
        rebuilt = Executor(policy).run([_roundtrip(s) for s in specs])
        assert original == rebuilt

    def test_predicate_observable_by_dotted_path(self):
        spec = RunSpec(
            circuit=_maj_circuit(),
            input_bits=(1, 0, 1),
            observable=PredicateObservable(no_failures),
            noise=NoiseModel(gate_error=1e-3),
            trials=64,
            seed=3,
        )
        rebuilt = _roundtrip(spec)
        assert rebuilt == spec
        assert rebuilt.observable.predicate is no_failures

    def test_none_seed_round_trips(self):
        spec = RunSpec(
            circuit=_maj_circuit(),
            input_bits=(0, 0, 0),
            observable=PredicateObservable(no_failures),
            noise=NoiseModel(gate_error=0.0),
            trials=10,
            seed=None,
        )
        assert _roundtrip(spec).seed is None

    def test_format_version_stamped(self):
        (spec,) = cycle_error_specs(((2e-3, 11),), 100, cycles=1)
        assert spec.to_json()["format"] == SPEC_FORMAT_VERSION


class TestRefusals:
    def _spec(self, **overrides) -> RunSpec:
        base = dict(
            circuit=_maj_circuit(),
            input_bits=(1, 0, 1),
            observable=PredicateObservable(no_failures),
            noise=NoiseModel(gate_error=1e-3),
            trials=64,
            seed=3,
        )
        base.update(overrides)
        return RunSpec(**base)

    def test_lambda_predicate_refused(self):
        spec = self._spec(
            observable=PredicateObservable(lambda s: np.zeros(s.trials, bool))
        )
        with pytest.raises(SerializationError):
            spec.to_json()

    def test_generator_seed_refused(self):
        spec = self._spec(seed=np.random.default_rng(0))
        with pytest.raises(SerializationError):
            spec.to_json()

    def test_unknown_format_version_refused(self):
        data = self._spec().to_json()
        data["format"] = SPEC_FORMAT_VERSION + 1
        with pytest.raises(SerializationError):
            spec_from_json(data)

    def test_unregistered_observable_refused(self):
        class Odd:
            def count_failures(self, states):
                return 0

        with pytest.raises(SerializationError):
            self._spec(observable=Odd()).to_json()


class TestLogicalProcessorEquality:
    def test_equal_builds_compare_equal(self):
        a = LogicalProcessor(1)
        b = LogicalProcessor(1)
        assert a == b and hash(a) == hash(b)
        a.apply(library.X, 0, recover=True)
        assert a != b
        b.apply(library.X, 0, recover=True)
        assert a == b
