"""Insertion-order independence of every hashed wire form.

Point keys, shard IDs, and content digests must be pure functions of
content: two payloads with the same keys and values in different
insertion order have to hash identically, and anything JSON cannot
canonicalise (sets) must be refused, not serialised in iteration order.
"""

from __future__ import annotations

import pytest

from repro.errors import SerializationError
from repro.harness.threshold_finder import cycle_error_specs
from repro.jobs import point_key
from repro.runtime.serialization import (
    canonical_json,
    circuit_to_json,
    compress_for_hashing,
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


class TestCompressForHashing:
    def test_insertion_order_independent(self):
        # Reorder the top-level dict while keeping the memoised circuit
        # fragments by reference (digest substitution is identity-keyed;
        # the contract forbids mixing raw and compressed fragments in
        # one key space).
        spec = one_spec()
        payload = spec_to_json(spec)
        shuffled = {key: payload[key] for key in reversed(payload)}
        a = canonical_json(compress_for_hashing(payload))
        b = canonical_json(compress_for_hashing(shuffled))
        assert a == b

    def test_deep_reorder_without_fragments(self):
        payload = {"b": {"y": [1, 2], "x": 3}, "a": {"q": 0}}
        a = canonical_json(compress_for_hashing(payload))
        b = canonical_json(compress_for_hashing(reordered(payload)))
        assert a == b

    def test_digest_substitution_still_happens(self):
        spec = one_spec()
        fragment = circuit_to_json(spec.circuit)
        compressed = compress_for_hashing({"circuit": fragment})
        assert set(compressed["circuit"]) == {"circuit_digest"}


class TestPointKeyStability:
    def test_round_tripped_spec_keeps_its_point_key(self):
        spec = one_spec()
        rebuilt = spec_from_json(spec_to_json(spec))
        assert point_key(rebuilt) == point_key(spec)
