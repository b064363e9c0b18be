"""Insertion-order independence of every hashed wire form.

Point keys, shard IDs, and content digests must be pure functions of
content: two payloads with the same keys and values in different
insertion order have to hash identically, and anything JSON cannot
canonicalise (sets) must be refused, not serialised in iteration order.
"""

from __future__ import annotations

import pytest

from repro.core.circuit import Circuit
from repro.errors import SerializationError
from repro.harness.threshold_finder import cycle_error_specs
from repro.jobs import point_address
from repro.jobs import store as jobs_store
from repro.runtime.serialization import (
    _CIRCUIT_WIRE_CACHE,
    _CIRCUIT_WIRE_CACHE_MAX,
    _circuit_wire,
    canonical_json,
    circuit_from_json,
    spec_from_json,
    spec_to_json,
)


def reordered(payload):
    """A deep copy with every dict's keys inserted in reverse order."""
    if isinstance(payload, dict):
        return {key: reordered(payload[key]) for key in reversed(payload)}
    if isinstance(payload, list):
        return [reordered(item) for item in payload]
    return payload


def one_spec():
    (spec,) = cycle_error_specs(((0.002, 100),), trials=50, cycles=1)
    return spec


class TestCanonicalJson:
    def test_key_order_does_not_change_the_text(self):
        payload = {"b": [1, {"y": 2, "x": 3}], "a": 0}
        assert canonical_json(payload) == canonical_json(reordered(payload))

    def test_set_payload_is_refused(self):
        with pytest.raises(SerializationError):
            canonical_json({"wires": {0, 1, 2}})

    def test_non_json_object_is_refused(self):
        with pytest.raises(SerializationError):
            canonical_json({"gate": object()})


class TestSpecWireForm:
    def test_insertion_order_independent(self):
        spec = one_spec()
        payload = spec_to_json(spec)
        assert canonical_json(payload) == canonical_json(reordered(payload))

    def test_point_key_ignores_insertion_order(self, monkeypatch):
        # point_address hashes spec_to_json's output; a wire form built
        # with every dict's keys inserted in reverse must key the same.
        spec = one_spec()
        key = point_address(spec)[0]
        monkeypatch.setattr(
            jobs_store,
            "spec_to_json",
            lambda s, circuits=None: reordered(spec_to_json(s, circuits)),
        )
        assert point_address(spec)[0] == key

    def test_circuits_are_digest_references(self):
        payload = spec_to_json(one_spec())
        assert set(payload["circuit"]) == {"circuit_digest"}
        decoder = payload["observable"]["decoder"]
        assert decoder["circuit"] == payload["circuit"]
        assert '"ops"' not in canonical_json(payload)

    def test_spec_keeps_its_point_key_across_a_wire_cache_clear(self):
        spec = one_spec()
        key = point_address(spec)[0]
        for index in range(_CIRCUIT_WIRE_CACHE_MAX):
            _circuit_wire(Circuit(2, name=f"filler-{index}").cnot(0, 1))
        memo_key = (spec.circuit.name, spec.circuit.content_key())
        assert memo_key not in _CIRCUIT_WIRE_CACHE
        assert point_address(spec)[0] == key


class TestPointKeyStability:
    def test_round_tripped_spec_keeps_its_point_key(self):
        spec = one_spec()
        fragments: dict[str, dict] = {}
        payload = spec_to_json(spec, fragments)
        circuits = {
            digest: circuit_from_json(fragment)
            for digest, fragment in fragments.items()
        }
        rebuilt = spec_from_json(payload, circuits)
        assert point_address(rebuilt)[0] == point_address(spec)[0]
