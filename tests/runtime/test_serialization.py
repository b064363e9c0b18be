"""Tests for the RunSpec JSON wire form."""

from __future__ import annotations

import json
import sys
from dataclasses import replace

import numpy as np
import pytest

from repro.coding.logical import LogicalProcessor
from repro.core import library
from repro.core.circuit import Circuit, circuit_from_json, circuit_to_json
from repro.errors import SerializationError
from repro.harness.threshold_finder import cycle_error_specs, cycle_processor
from repro.noise.model import NoiseModel
from repro.runtime.executor import Executor, _group_key
from repro.runtime.serialization import (
    SPEC_FORMAT_VERSION,
    noise_from_json,
    noise_to_json,
    spec_from_json,
    spec_to_json,
)
from repro.runtime.spec import (
    DecodeObservable,
    DecodedMismatchObservable,
    ExecutionPolicy,
    PredicateObservable,
    RunSpec,
)


def no_failures(states):
    """A module-level predicate, which the wire form refuses all the same."""
    return np.zeros(states.trials, dtype=bool)


def _maj_circuit() -> Circuit:
    return Circuit(3, name="maj").cnot(0, 1).cnot(0, 2).toffoli(1, 2, 0)


def _through_text(payload):
    return json.loads(json.dumps(payload))


def _roundtrip(spec: RunSpec) -> RunSpec:
    # Through actual JSON text, not just dicts: the wire form and its
    # circuits must survive what a job directory's files do to them.
    fragments: dict[str, dict] = {}
    payload = _through_text(spec_to_json(spec, fragments))
    circuits = {
        digest: circuit_from_json(_through_text(fragment))
        for digest, fragment in fragments.items()
    }
    return spec_from_json(payload, circuits)


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

    def test_list_expected_word_round_trips_to_an_equal_spec(self):
        # The reader builds a tuple, so the observable must hold one
        # whatever sequence it was given.
        processor = cycle_processor(1)
        spec = RunSpec(
            circuit=processor.circuit,
            input_bits=processor.physical_input((1, 0, 1)),
            observable=DecodeObservable(processor, [1, 0, 1]),
            noise=NoiseModel(gate_error=2e-3),
            trials=100,
            seed=4,
        )
        assert spec.observable.expected == (1, 0, 1)
        assert _roundtrip(spec) == spec

    def test_compressed_round_trip_resolves_supplied_circuits(self):
        # The one wire form: circuits are digest references, recorded
        # once in the circuits mapping, and come back as one supplied
        # Circuit, shared with the decoder.
        (spec,) = cycle_error_specs(((2e-3, 11),), 2000, cycles=1)
        fragments: dict[str, dict] = {}
        payload = spec_to_json(spec, fragments)
        assert '"ops"' not in json.dumps(payload)
        (digest,) = fragments
        assert fragments[digest] == circuit_to_json(spec.circuit)
        circuit = circuit_from_json(_through_text(fragments[digest]))
        rebuilt = spec_from_json(_through_text(payload), {digest: circuit})
        assert rebuilt == spec
        assert rebuilt.circuit is circuit
        assert rebuilt.observable.decoder.circuit is circuit

    def test_unresolved_circuit_reference_refused(self):
        (spec,) = cycle_error_specs(((2e-3, 11),), 2000, cycles=1)
        with pytest.raises(SerializationError, match="no supplied circuit"):
            spec_from_json(spec_to_json(spec), {})

    @pytest.mark.parametrize(
        "circuit",
        [
            "embedded",
            "abc",
            {"circuit_digest": "../manifest"},
            {"circuit_digest": "A" * 64},
            {"circuit_digest": 7},
        ],
    )
    def test_circuit_that_is_not_a_digest_reference_refused(self, circuit):
        (spec,) = cycle_error_specs(((2e-3, 11),), 2000, cycles=1)
        fragments: dict[str, dict] = {}
        payload = dict(spec_to_json(spec, fragments))
        if circuit == "embedded":
            (circuit,) = fragments.values()
        payload["circuit"] = circuit
        circuits = {d: spec.circuit for d in fragments}
        with pytest.raises(SerializationError, match="64 lowercase hex"):
            spec_from_json(payload, circuits)

    def test_rebuilt_spec_runs_bit_identical(self):
        specs = cycle_error_specs(((3e-3, 5), (6e-3, 6)), 2000, cycles=1)
        policy = ExecutionPolicy()
        original = Executor(policy).run(specs)
        rebuilt = Executor(policy).run([_roundtrip(s) for s in specs])
        assert original == rebuilt

    def test_none_seed_round_trips(self):
        (spec,) = cycle_error_specs(((2e-3, 11),), 10, cycles=1)
        rebuilt = _roundtrip(replace(spec, seed=None))
        assert rebuilt.seed is None
        assert rebuilt == replace(spec, seed=None)

    def test_format_version_stamped(self):
        (spec,) = cycle_error_specs(((2e-3, 11),), 100, cycles=1)
        assert spec_to_json(spec)["format"] == SPEC_FORMAT_VERSION


class TestRefusals:
    def _spec(self, **overrides) -> RunSpec:
        (spec,) = cycle_error_specs(((1e-3, 3),), 64, cycles=1)
        return replace(spec, **overrides)

    def test_lambda_predicate_refused(self):
        spec = self._spec(
            observable=PredicateObservable(lambda s: np.zeros(s.trials, bool))
        )
        with pytest.raises(SerializationError):
            spec_to_json(spec)

    def test_module_level_predicate_refused(self):
        spec = self._spec(observable=PredicateObservable(no_failures))
        with pytest.raises(SerializationError, match="PredicateObservable"):
            spec_to_json(spec)

    def test_predicate_entry_is_an_unknown_kind_and_imports_nothing(self):
        # A manifest is read before its job id is checked, so reading
        # must never import a module the payload names.
        circuits: dict[str, dict] = {}
        spec = self._spec()
        payload = spec_to_json(spec, circuits)
        payload["observable"] = {
            "kind": "predicate",
            "module": "colorsys",
            "qualname": "rgb_to_hsv",
        }
        (digest,) = circuits
        loaded = set(sys.modules)
        with pytest.raises(SerializationError, match="unknown observable kind"):
            spec_from_json(payload, {digest: spec.circuit})
        assert set(sys.modules) == loaded

    def test_generator_seed_refused(self):
        spec = self._spec(seed=np.random.default_rng(0))
        with pytest.raises(SerializationError):
            spec_to_json(spec)

    def test_unknown_format_version_refused(self):
        data = spec_to_json(self._spec())
        data["format"] = SPEC_FORMAT_VERSION + 1
        with pytest.raises(SerializationError):
            spec_from_json(data, {})

    def test_unregistered_observable_refused(self):
        class Odd:
            def failure_plane(self, states):
                return np.zeros(states.n_words, np.uint64)

        with pytest.raises(SerializationError):
            spec_to_json(self._spec(observable=Odd()))

    def test_decoder_other_than_a_logical_processor_refused(self):
        observable = DecodeObservable(decoder=object(), expected=(0,))
        with pytest.raises(SerializationError, match="LogicalProcessor"):
            spec_to_json(self._spec(observable=observable))

    def test_non_integer_seed_refused(self):
        with pytest.raises(SerializationError, match="float"):
            spec_to_json(self._spec(seed=3.0))

    def test_unknown_decoder_kind_refused(self):
        (spec,) = cycle_error_specs(((2e-3, 11),), 200, cycles=1)
        circuits: dict[str, dict] = {}
        payload = spec_to_json(spec, circuits)
        payload["observable"]["decoder"]["kind"] = "mystery"
        (digest,) = circuits
        with pytest.raises(SerializationError, match="unknown decoder kind"):
            spec_from_json(payload, {digest: spec.circuit})

    def test_level_two_decoder_refused(self):
        # The type check alone would pass it: the wire form holds only
        # level-1 roles.
        processor = LogicalProcessor(3, level=2)
        processor.apply(library.MAJ, 0, 1, 2)
        spec = RunSpec(
            circuit=processor.circuit,
            input_bits=processor.physical_input((1, 0, 1)),
            observable=DecodedMismatchObservable(processor, (1, 0, 1)),
            noise=NoiseModel(gate_error=1e-3),
            trials=64,
            seed=3,
        )
        with pytest.raises(SerializationError, match="level-2"):
            spec_to_json(spec)


class TestTamperedDecoderLayouts:
    """A decoder layout read back must name its own nine-wire cell."""

    def _payload(self):
        (spec,) = cycle_error_specs(((2e-3, 11),), 100, cycles=1)
        fragments: dict[str, dict] = {}
        payload = _through_text(spec_to_json(spec, fragments))
        circuits = {d: spec.circuit for d in fragments}
        return payload, payload["observable"]["decoder"], circuits

    @pytest.mark.parametrize("wire", [9, -1, 27])
    def test_out_of_cell_wire_refused(self, wire):
        payload, decoder, circuits = self._payload()
        decoder["layouts"][0]["ancillas"][0] = wire
        with pytest.raises(SerializationError, match="outside the cell 0..8"):
            spec_from_json(payload, circuits)

    def test_another_cells_layout_refused(self):
        payload, decoder, circuits = self._payload()
        decoder["layouts"][0], decoder["layouts"][1] = (
            decoder["layouts"][1],
            decoder["layouts"][0],
        )
        with pytest.raises(SerializationError, match="outside the cell"):
            spec_from_json(payload, circuits)

    def test_repeated_wire_refused(self):
        payload, decoder, circuits = self._payload()
        layout = decoder["layouts"][2]
        layout["ancillas"][0] = layout["data"][0]
        with pytest.raises(SerializationError, match="9 distinct wires"):
            spec_from_json(payload, circuits)

    def test_misshapen_roles_refused(self):
        # Nine distinct in-cell wires, but four of them marked as data.
        payload, decoder, circuits = self._payload()
        layout = decoder["layouts"][0]
        layout["data"].append(layout["ancillas"].pop())
        with pytest.raises(SerializationError, match="3 data and 6 ancilla"):
            spec_from_json(payload, circuits)

    def test_layout_count_must_match_the_logical_bits(self):
        payload, decoder, circuits = self._payload()
        del decoder["layouts"][1]
        with pytest.raises(SerializationError, match="3 logical bits but 2"):
            spec_from_json(payload, circuits)

    def test_logical_bits_beyond_the_circuit_refused(self):
        # Four consistent cells, but the circuit only has wires for three.
        payload, decoder, circuits = self._payload()
        decoder["n_logical"] = 4
        decoder["layouts"].append(
            {"data": [27, 28, 29], "ancillas": [30, 31, 32, 33, 34, 35]}
        )
        with pytest.raises(SerializationError, match="36-wire circuit, got 27"):
            spec_from_json(payload, circuits)

    def test_untampered_payload_reads_back(self):
        payload, decoder, circuits = self._payload()
        processor = spec_from_json(payload, circuits).observable.decoder
        assert processor.blocks[1].roles.data == (0, 1, 5)


class TestLogicalProcessorEquality:
    def test_equal_builds_compare_equal(self):
        a = LogicalProcessor(1)
        b = LogicalProcessor(1)
        assert a == b and hash(a) == hash(b)
        a.apply(library.X, 0, recover=True)
        assert a != b
        b.apply(library.X, 0, recover=True)
        assert a == b
