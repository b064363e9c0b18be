"""JSON wire forms for :class:`~repro.runtime.spec.RunSpec` and its parts.

Until now specs were only *picklable*, which is enough to cross a
process-pool boundary but useless for anything durable: a shard
manifest written by one process and resumed by another (possibly a
different Python, a different machine) needs a stable, inspectable,
versioned wire form.  This module provides exactly that:

* :func:`spec_to_json` / :func:`spec_from_json` — the full round trip,
  stamped with :data:`SPEC_FORMAT_VERSION` so a future format change
  fails loudly on old readers instead of mis-parsing.
* :func:`circuit_to_json` / :func:`circuit_from_json` — circuits with
  gate tables deduplicated (an op references its gate by index), so a
  108-op recovery cycle built from three distinct gates serialises the
  tables three times, not 108.
* :func:`compress_for_hashing` — the compressed form keys hash and
  durable files store: each circuit becomes a ``{"circuit_digest":
  d}`` reference, its wire form kept once elsewhere and supplied back
  to :func:`spec_from_json` as a ``circuits`` mapping.
* Codec registries for observables and decoders —
  :func:`register_observable_codec` / :func:`register_decoder_codec`
  let new observable or decoder types opt into the wire form without
  this module naming them.  The built-in frozen observables and
  :class:`~repro.coding.logical.LogicalProcessor` are pre-registered.

The round trip is *value-faithful*: ``spec_from_json(spec_to_json(s))
== s``, the reconstructed circuit has the same
:meth:`~repro.core.circuit.Circuit.content_key` (so executor grouping
and the compile cache treat it as the same circuit), and running the
reconstructed spec is bit-identical to running the original — which is
what lets a resumed sweep job rebuild its specs from the manifest and
still merge bit-for-bit with shards run before the crash.

Anything without a faithful wire form raises
:class:`~repro.errors.SerializationError` at serialisation time:
predicates that are not module-level functions, live RNG generators as
seeds, decoder types with no registered codec.  Refusing is the
feature — a spec that cannot round-trip must never be written into a
manifest that resume will trust.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Callable, Mapping
from importlib import import_module

import numpy as np

from repro.coding.logical import LogicalProcessor
from repro.coding.recovery import RecoveryLayout
from repro.core.circuit import Circuit, OpKind, Operation
from repro.core.gate import Gate
from repro.errors import SerializationError
from repro.noise.model import NoiseModel
from repro.runtime.spec import (
    DecodeObservable,
    DecodedMismatchObservable,
    PredicateObservable,
    RunSpec,
)

__all__ = [
    "SPEC_FORMAT_VERSION",
    "canonical_json",
    "circuit_from_json",
    "circuit_to_json",
    "noise_from_json",
    "noise_to_json",
    "observable_from_json",
    "observable_to_json",
    "register_decoder_codec",
    "register_observable_codec",
    "spec_from_json",
    "spec_to_json",
]

#: Version stamp written into every serialised spec.  Bump on any
#: change to the wire form that an old reader would mis-parse; readers
#: reject versions they do not know.
SPEC_FORMAT_VERSION = 1

#: The key of a circuit reference, ``{"circuit_digest": <hex>}``: the
#: stored stand-in for a circuit fragment (:func:`compress_for_hashing`).
_CIRCUIT_REFERENCE = "circuit_digest"


def canonical_json(payload) -> str:
    """The canonical text form used for hashing wire payloads.

    Sorted keys and minimal separators, so two semantically equal
    payloads produce byte-identical text (and therefore equal content
    digests) regardless of construction order.  Payloads that JSON
    cannot represent canonically (sets, arrays, arbitrary objects)
    raise :class:`~repro.errors.SerializationError` — a set would
    otherwise serialise in iteration order and silently destabilise
    every digest built on top.
    """
    try:
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))
    except TypeError as exc:
        raise SerializationError(
            f"payload is not canonically JSON-serialisable: {exc}"
        ) from exc


# ----------------------------------------------------------------------
# Circuits
# ----------------------------------------------------------------------


class _CircuitFragment(dict):
    """A memoised circuit wire form that carries its own digest.

    ``digest`` is the SHA-256 of the fragment's canonical text, so
    :func:`compress_for_hashing` can swap the fragment for a reference
    without re-serialising it.  JSON encodes it as a plain object.
    """

    digest: str


#: Memoised wire forms keyed by ``(name, content_key)`` — value-based,
#: so an appended op (which changes ``content_key``) is a clean miss.
#: Sweeps serialize the same shared circuit once per point (the spec
#: AND its decode observable each embed it); without the memo that
#: dominates the warm result-store path.
_CIRCUIT_WIRE_CACHE: dict[tuple[str, str], _CircuitFragment] = {}
_CIRCUIT_WIRE_CACHE_MAX = 128


def circuit_to_json(circuit: Circuit) -> dict:
    """The circuit's wire form: gate table pool + op list.

    The returned dict is memoised and shared — treat it as frozen
    (serialize it, embed it in payloads, never mutate it in place).
    """
    key = (circuit.name, circuit.content_key())
    cached = _CIRCUIT_WIRE_CACHE.get(key)
    if cached is not None:
        return cached
    payload = _CircuitFragment(_circuit_to_json_uncached(circuit))
    payload.digest = hashlib.sha256(
        canonical_json(payload).encode()
    ).hexdigest()
    if len(_CIRCUIT_WIRE_CACHE) >= _CIRCUIT_WIRE_CACHE_MAX:
        _CIRCUIT_WIRE_CACHE.clear()
    _CIRCUIT_WIRE_CACHE[key] = payload
    return payload


def compress_for_hashing(payload, circuits: dict[str, dict] | None = None):
    """A copy of ``payload`` with circuit fragments swapped for references.

    Every embedded circuit fragment that came out of
    :func:`circuit_to_json` is replaced by ``{"circuit_digest": <sha256
    of its canonical text>}``.  This compressed form is what keys hash
    (the result store, shard IDs) and what durable files store: a
    10-point sweep sharing one circuit serializes it once, not 20
    times.  When ``circuits`` is given, each replaced fragment is
    recorded in it under its digest, so the caller can store it once
    (see :func:`spec_from_json` for the way back).  Fragments that did
    not come from :func:`circuit_to_json` (e.g. payloads that went
    through JSON text and back) are left in place.
    """
    if isinstance(payload, _CircuitFragment):
        if circuits is not None:
            circuits[payload.digest] = payload
        return {_CIRCUIT_REFERENCE: payload.digest}
    if isinstance(payload, dict):
        # Sorted so the compressed form is itself insertion-order
        # independent; the final key bytes were already order-free
        # (canonical_json sorts at dump time), but key computations
        # must not iterate dicts in insertion order (RL111).
        return {
            key: compress_for_hashing(payload[key], circuits)
            for key in sorted(payload)
        }
    if isinstance(payload, list):
        return [compress_for_hashing(item, circuits) for item in payload]
    return payload


def _circuit_to_json_uncached(circuit: Circuit) -> dict:
    gates: list[Gate] = []
    gate_index: dict[Gate, int] = {}
    ops = []
    for op in circuit.ops:
        if op.kind is OpKind.GATE:
            index = gate_index.get(op.gate)
            if index is None:
                index = len(gates)
                gate_index[op.gate] = index
                gates.append(op.gate)
            ops.append({"kind": "gate", "wires": list(op.wires), "gate": index})
        else:
            ops.append(
                {
                    "kind": "reset",
                    "wires": list(op.wires),
                    "value": op.reset_value,
                }
            )
    return {
        "n_wires": circuit.n_wires,
        "name": circuit.name,
        "gates": [
            {"name": g.name, "arity": g.arity, "table": list(g.table)}
            for g in gates
        ],
        "ops": ops,
    }


def circuit_from_json(data: dict) -> Circuit:
    """Rebuild a circuit from :func:`circuit_to_json` output.

    Gate and circuit construction re-validate everything (bijective
    tables, wire ranges, arity matches), so a tampered payload fails
    as a library error instead of producing a silently wrong circuit.
    A ``{"circuit_digest": d}`` reference that :func:`spec_from_json`
    resolved returns its supplied circuit; an unresolved one is
    refused.
    """
    if isinstance(data, _ResolvedReference):
        return data.circuit
    if _CIRCUIT_REFERENCE in data:
        raise SerializationError(
            f"circuit reference {data[_CIRCUIT_REFERENCE]} needs a circuits "
            f"mapping to resolve against; pass one to spec_from_json"
        )
    gates = [
        Gate(name=g["name"], arity=g["arity"], table=tuple(g["table"]))
        for g in data["gates"]
    ]
    circuit = Circuit(data["n_wires"], name=data.get("name", ""))
    for op in data["ops"]:
        wires = tuple(op["wires"])
        if op["kind"] == "gate":
            circuit.append(
                Operation(OpKind.GATE, wires, gate=gates[op["gate"]])
            )
        elif op["kind"] == "reset":
            circuit.append(
                Operation(OpKind.RESET, wires, reset_value=op["value"])
            )
        else:
            raise SerializationError(f"unknown op kind {op['kind']!r}")
    return circuit


class _ResolvedReference(dict):
    """A circuit reference bound to its supplied :class:`Circuit`.

    :func:`spec_from_json` swaps each ``{"circuit_digest": d}`` for
    one of these before any codec runs, so a codec that calls
    :func:`circuit_from_json` on its circuit field gets the shared
    circuit without knowing references exist.
    """

    circuit: Circuit


def _resolve_references(payload, circuits: Mapping[str, Circuit]):
    """A copy of ``payload`` with each circuit reference resolved."""
    if isinstance(payload, dict):
        if payload.keys() == {_CIRCUIT_REFERENCE}:
            digest = payload[_CIRCUIT_REFERENCE]
            try:
                circuit = circuits[digest]
            except KeyError:
                raise SerializationError(
                    f"circuit reference {digest} has no supplied circuit"
                ) from None
            resolved = _ResolvedReference(payload)
            resolved.circuit = circuit
            return resolved
        return {
            key: _resolve_references(value, circuits)
            for key, value in payload.items()
        }
    if isinstance(payload, list):
        return [_resolve_references(item, circuits) for item in payload]
    return payload


# ----------------------------------------------------------------------
# Noise models
# ----------------------------------------------------------------------


def noise_to_json(noise: NoiseModel) -> dict:
    return {"gate_error": noise.gate_error, "reset_error": noise.reset_error}


def noise_from_json(data: dict) -> NoiseModel:
    return NoiseModel(
        gate_error=data["gate_error"], reset_error=data["reset_error"]
    )


# ----------------------------------------------------------------------
# Decoders
# ----------------------------------------------------------------------

#: kind -> (type, encode, decode).  ``encode(decoder) -> dict`` (sans
#: the ``kind`` tag), ``decode(dict) -> decoder``.
_DECODER_CODECS: dict[str, tuple[type, Callable, Callable]] = {}


def register_decoder_codec(
    kind: str, cls: type, encode: Callable, decode: Callable
) -> None:
    """Register a wire form for a decoder type.

    ``kind`` is the tag written into the payload; it must be unique.
    Decoders are matched by exact type, not isinstance — a subclass
    with extra state must register its own codec.
    """
    if kind in _DECODER_CODECS:
        raise SerializationError(f"decoder codec {kind!r} already registered")
    _DECODER_CODECS[kind] = (cls, encode, decode)


def _decoder_to_json(decoder: object) -> dict:
    for kind, (cls, encode, _) in _DECODER_CODECS.items():
        if type(decoder) is cls:
            return {"kind": kind, **encode(decoder)}
    raise SerializationError(
        f"decoder type {type(decoder).__name__} has no registered wire "
        f"form; register one with "
        f"repro.runtime.serialization.register_decoder_codec"
    )


def _decoder_from_json(data: dict) -> object:
    kind = data.get("kind")
    entry = _DECODER_CODECS.get(kind)
    if entry is None:
        raise SerializationError(f"unknown decoder kind {kind!r}")
    return entry[2](data)


def _logical_processor_to_json(processor: LogicalProcessor) -> dict:
    return {
        "n_logical": processor.n_logical,
        "include_resets": processor.include_resets,
        "gates_applied": processor.logical_gates_applied,
        "layouts": [
            {"data": list(l.data), "ancillas": list(l.ancillas)}
            for l in processor.layouts
        ],
        "circuit": circuit_to_json(processor.circuit),
    }


def _logical_processor_from_json(data: dict) -> LogicalProcessor:
    circuit = circuit_from_json(data["circuit"])
    processor = LogicalProcessor(
        data["n_logical"],
        include_resets=data["include_resets"],
        name=circuit.name,
    )
    # The constructor builds an empty program; restore the serialised
    # build state wholesale.  RecoveryLayout re-validates wire counts.
    processor.circuit = circuit
    processor.layouts = [
        RecoveryLayout(
            data=tuple(layout["data"]), ancillas=tuple(layout["ancillas"])
        )
        for layout in data["layouts"]
    ]
    processor.logical_gates_applied = data["gates_applied"]
    return processor


register_decoder_codec(
    "logical_processor",
    LogicalProcessor,
    _logical_processor_to_json,
    _logical_processor_from_json,
)


# ----------------------------------------------------------------------
# Observables
# ----------------------------------------------------------------------

_OBSERVABLE_CODECS: dict[str, tuple[type, Callable, Callable]] = {}


def register_observable_codec(
    kind: str, cls: type, encode: Callable, decode: Callable
) -> None:
    """Register a wire form for an observable type (exact-type match)."""
    if kind in _OBSERVABLE_CODECS:
        raise SerializationError(
            f"observable codec {kind!r} already registered"
        )
    _OBSERVABLE_CODECS[kind] = (cls, encode, decode)


def observable_to_json(observable: object) -> dict:
    """The observable's tagged wire form, or :class:`SerializationError`."""
    for kind, (cls, encode, _) in _OBSERVABLE_CODECS.items():
        if type(observable) is cls:
            return {"kind": kind, **encode(observable)}
    raise SerializationError(
        f"observable type {type(observable).__name__} has no registered "
        f"wire form; register one with "
        f"repro.runtime.serialization.register_observable_codec"
    )


def observable_from_json(data: dict) -> object:
    kind = data.get("kind")
    entry = _OBSERVABLE_CODECS.get(kind)
    if entry is None:
        raise SerializationError(f"unknown observable kind {kind!r}")
    return entry[2](data)


def _predicate_to_json(observable: PredicateObservable) -> dict:
    predicate = observable.predicate
    module = getattr(predicate, "__module__", None)
    qualname = getattr(predicate, "__qualname__", None)
    if not module or not qualname or "<" in qualname or "." in qualname:
        raise SerializationError(
            f"predicate {predicate!r} is not a module-level function; only "
            f"importable-by-name predicates have a JSON wire form (lambdas, "
            f"closures, and bound methods do not)"
        )
    resolved = getattr(import_module(module), qualname, None)
    if resolved is not predicate:
        raise SerializationError(
            f"predicate {module}.{qualname} does not resolve back to the "
            f"serialised function; it cannot round-trip"
        )
    return {"module": module, "qualname": qualname}


def _predicate_from_json(data: dict) -> PredicateObservable:
    try:
        module = import_module(data["module"])
        predicate = getattr(module, data["qualname"])
    except (ImportError, AttributeError) as exc:
        raise SerializationError(
            f"predicate {data['module']}.{data['qualname']} is not "
            f"importable: {exc}"
        ) from exc
    return PredicateObservable(predicate)


register_observable_codec(
    "predicate", PredicateObservable, _predicate_to_json, _predicate_from_json
)
register_observable_codec(
    "decode",
    DecodeObservable,
    lambda o: {
        "decoder": _decoder_to_json(o.decoder),
        "expected": list(o.expected),
    },
    lambda d: DecodeObservable(
        decoder=_decoder_from_json(d["decoder"]),
        expected=tuple(d["expected"]),
    ),
)
register_observable_codec(
    "decoded_mismatch",
    DecodedMismatchObservable,
    lambda o: {
        "decoder": _decoder_to_json(o.decoder),
        "expected": list(o.expected),
    },
    lambda d: DecodedMismatchObservable(
        decoder=_decoder_from_json(d["decoder"]),
        expected=tuple(d["expected"]),
    ),
)


# ----------------------------------------------------------------------
# Specs
# ----------------------------------------------------------------------


def spec_to_json(spec: RunSpec) -> dict:
    """The spec's versioned wire form.

    The seed must be a plain integer or ``None`` — a live
    :class:`numpy.random.Generator` has consumed an unknowable amount
    of stream and cannot be reproduced from JSON, so it is refused
    rather than approximated.  (Durable job manifests additionally
    require a concrete integer; the planner enforces that stricter
    rule itself.)
    """
    seed = spec.seed
    if isinstance(seed, np.random.Generator):
        raise SerializationError(
            "a RunSpec carrying a live numpy Generator cannot be "
            "serialised; give each point an integer seed (see "
            "repro.harness.sweep.spawn_seeds)"
        )
    if seed is not None and not isinstance(seed, (int, np.integer)):
        raise SerializationError(
            f"seed must be an int or None to serialise, got {type(seed).__name__}"
        )
    return {
        "format": SPEC_FORMAT_VERSION,
        "circuit": circuit_to_json(spec.circuit),
        "input_bits": list(spec.input_bits),
        "observable": observable_to_json(spec.observable),
        "noise": noise_to_json(spec.noise),
        "trials": spec.trials,
        "seed": None if seed is None else int(seed),
    }


def spec_from_json(
    data: dict, circuits: Mapping[str, Circuit] | None = None
) -> RunSpec:
    """Rebuild a spec from :func:`spec_to_json` output.

    ``data`` may also be the :func:`compress_for_hashing` form: each
    ``{"circuit_digest": d}`` reference, in the spec or inside its
    observable, resolves to ``circuits[d]`` before any codec runs, so
    specs sharing a circuit share one
    :class:`~repro.core.circuit.Circuit`.

    Unknown format versions are rejected: mis-parsing a future wire
    form into a plausible-but-wrong spec would silently corrupt every
    result derived from it.
    """
    version = data.get("format")
    if version != SPEC_FORMAT_VERSION:
        raise SerializationError(
            f"spec wire format {version!r} is not supported by this code "
            f"(expected {SPEC_FORMAT_VERSION}); regenerate the manifest"
        )
    if circuits is not None:
        data = _resolve_references(data, circuits)
    return RunSpec(
        circuit=circuit_from_json(data["circuit"]),
        input_bits=tuple(data["input_bits"]),
        observable=observable_from_json(data["observable"]),
        noise=noise_from_json(data["noise"]),
        trials=data["trials"],
        seed=data["seed"],
    )
