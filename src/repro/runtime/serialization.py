"""JSON wire forms for :class:`~repro.runtime.spec.RunSpec` and its parts.

Specs are picklable, which is enough to cross a process-pool boundary
but useless for anything durable: a shard manifest written by one
process and resumed by another (possibly a different Python, a
different machine) needs a stable, inspectable, versioned wire form.
This module provides exactly one:

* :func:`spec_to_json` / :func:`spec_from_json` — the round trip,
  stamped with :data:`SPEC_FORMAT_VERSION` so a future format change
  fails loudly on old readers instead of mis-parsing.  Every circuit
  in a spec (its own and its decoder's) is written as a
  ``{"circuit_digest": d}`` reference, ``d`` the SHA-256 of the
  circuit's canonical wire text.  This one form is what keys hash
  (the result store, shard IDs) and what durable files store: a
  10-point sweep sharing one circuit names it 20 times and writes it
  once.  ``spec_to_json(spec, circuits)`` records each referenced
  circuit's wire form in ``circuits`` under its digest;
  ``spec_from_json(data, circuits)`` takes the way back, resolving
  each digest in a mapping of rebuilt circuits, so specs sharing a
  circuit share one :class:`~repro.core.circuit.Circuit`.  Each blob is
  the circuit codec's wire form
  (:func:`~repro.core.circuit.circuit_to_json`).

Observables and decoders serialise by exact type: the two decode
observables (:class:`~repro.runtime.spec.DecodeObservable`,
:class:`~repro.runtime.spec.DecodedMismatchObservable`) over a level-1
:class:`~repro.coding.logical.LogicalProcessor` decoder.  A
:class:`~repro.runtime.spec.PredicateObservable` wraps arbitrary code,
so it has no wire form, and reading never imports a module a payload
names.

The round trip is *value-faithful*: ``spec_from_json(spec_to_json(s,
c), rebuilt(c)) == s``, the reconstructed circuit has the same
:meth:`~repro.core.circuit.Circuit.content_key` (so executor grouping
and the compile cache treat it as the same circuit), and running the
reconstructed spec is bit-identical to running the original — which is
what lets a resumed sweep job rebuild its specs from the manifest and
still merge bit-for-bit with shards run before the crash.

Anything without a faithful wire form raises
:class:`~repro.errors.SerializationError` at serialisation time:
live RNG generators as seeds, observable or decoder types outside the
built-in ones (predicate observables included), a decoder above
concatenation level 1.  Reading refuses the same way: a payload
of the wrong shape (a missing field, a string where an object belongs,
a digest that is not 64 lowercase hex characters, a layout wire outside
its logical bit's nine-wire cell) raises
:class:`~repro.errors.SerializationError`, never a bare
``KeyError``/``TypeError``.  Refusing is the feature — a spec
that cannot round-trip must never be written into a manifest that
resume will trust.
"""

from __future__ import annotations

import hashlib
import json
import re
from collections.abc import Mapping

import numpy as np

from repro.coding.concatenation import Block
from repro.coding.logical import LogicalProcessor
from repro.coding.recovery import RecoveryLayout
from repro.core.circuit import Circuit, circuit_to_json
from repro.errors import CodingError, SerializationError
from repro.noise.model import NoiseModel
from repro.runtime.spec import (
    DecodeObservable,
    DecodedMismatchObservable,
    RunSpec,
)

__all__ = [
    "SPEC_FORMAT_VERSION",
    "canonical_json",
    "noise_from_json",
    "noise_to_json",
    "spec_from_json",
    "spec_to_json",
]

#: Version stamp written into every serialised spec.  Bump on any
#: change to the wire form that an old reader would mis-parse; readers
#: reject versions they do not know.
SPEC_FORMAT_VERSION = 1

#: The key of a circuit reference, ``{"circuit_digest": <hex>}``: how a
#: spec names each of its circuits.
_CIRCUIT_REFERENCE = "circuit_digest"

#: A well-formed digest.  Readers check it before the digest names a
#: file (``circuits/<digest>.json``), so no payload can point outside.
_DIGEST = re.compile(r"[0-9a-f]{64}")


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

#: Memoised ``(wire form, digest)`` pairs keyed by ``(name,
#: content_key)`` — value-based, so an appended op (which changes
#: ``content_key``) is a clean miss.  Sweeps serialize the same shared
#: circuit once per point (the spec AND its decode observable name
#: it); without the memo that dominates the warm result-store path.
_CIRCUIT_WIRE_CACHE: dict[tuple[str, str], tuple[dict, str]] = {}
_CIRCUIT_WIRE_CACHE_MAX = 128


def _circuit_wire(circuit: Circuit) -> tuple[dict, str]:
    """The circuit's memoised wire form and the digest of its text."""
    key = (circuit.name, circuit.content_key())
    cached = _CIRCUIT_WIRE_CACHE.get(key)
    if cached is None:
        fragment = circuit_to_json(circuit)
        digest = hashlib.sha256(canonical_json(fragment).encode()).hexdigest()
        if len(_CIRCUIT_WIRE_CACHE) >= _CIRCUIT_WIRE_CACHE_MAX:
            _CIRCUIT_WIRE_CACHE.clear()
        cached = _CIRCUIT_WIRE_CACHE[key] = (fragment, digest)
    return cached


def _circuit_reference(circuit: Circuit, circuits: dict | None) -> dict:
    """``{"circuit_digest": d}`` for ``circuit``, recorded in ``circuits``."""
    fragment, digest = _circuit_wire(circuit)
    if circuits is not None:
        circuits[digest] = fragment
    return {_CIRCUIT_REFERENCE: digest}


def _referenced_circuit(data, circuits: Mapping[str, Circuit]) -> Circuit:
    """The supplied circuit a ``{"circuit_digest": d}`` reference names."""
    digest = data.get(_CIRCUIT_REFERENCE) if isinstance(data, dict) else None
    if not isinstance(digest, str) or not _DIGEST.fullmatch(digest):
        raise SerializationError(
            f"a circuit must be a {{{_CIRCUIT_REFERENCE!r}: <64 lowercase "
            f"hex characters>}} reference, got {str(data)[:80]}"
        )
    try:
        return circuits[digest]
    except KeyError:
        raise SerializationError(
            f"circuit reference {digest} has no supplied circuit"
        ) from None


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


def _decoder_to_json(decoder: object, circuits: dict | None) -> dict:
    if type(decoder) is not LogicalProcessor:
        raise SerializationError(
            f"decoder type {type(decoder).__name__} has no wire form; "
            f"only a LogicalProcessor decoder serialises"
        )
    if decoder.level != 1:
        raise SerializationError(
            f"a level-{decoder.level} LogicalProcessor has no wire form; "
            f"only level 1 serialises"
        )
    return {
        "kind": "logical_processor",
        "n_logical": decoder.n_logical,
        "include_resets": decoder.include_resets,
        "gates_applied": decoder.logical_gates_applied,
        "layouts": [_roles_to_json(block) for block in decoder.blocks],
        "circuit": _circuit_reference(decoder.circuit, circuits),
    }


def _roles_to_json(block: Block) -> dict:
    """A level-1 block's roles as the wires of its nine-wire cell."""
    return {
        "data": [block.base + i for i in block.roles.data],
        "ancillas": [block.base + i for i in block.roles.ancillas],
    }


def _roles_from_json(layout: dict, block: Block) -> RecoveryLayout:
    """Roles of ``block`` from a wire layout, refusing wires off its cell."""
    wires = (*layout["data"], *layout["ancillas"])
    cell = block.wires
    if not all(type(wire) is int and wire in cell for wire in wires):
        raise SerializationError(
            f"layout wires {list(wires)} fall outside the cell "
            f"{cell.start}..{cell.stop - 1}"
        )
    try:
        return RecoveryLayout(
            data=tuple(w - block.base for w in layout["data"]),
            ancillas=tuple(w - block.base for w in layout["ancillas"]),
        )
    except CodingError as exc:
        raise SerializationError(f"bad decoder layout: {exc}") from exc


def _decoder_from_json(
    data: dict, circuits: Mapping[str, Circuit]
) -> LogicalProcessor:
    if data.get("kind") != "logical_processor":
        raise SerializationError(f"unknown decoder kind {data.get('kind')!r}")
    circuit = _referenced_circuit(data["circuit"], circuits)
    processor = LogicalProcessor(
        data["n_logical"],
        include_resets=data["include_resets"],
        name=circuit.name,
    )
    # The constructor builds an empty program; restore the serialised
    # build state wholesale.
    layouts = data["layouts"]
    if len(layouts) != processor.n_logical:
        raise SerializationError(
            f"decoder has {processor.n_logical} logical bits but "
            f"{len(layouts)} layouts"
        )
    if circuit.n_wires != processor.circuit.n_wires:
        raise SerializationError(
            f"decoder of {processor.n_logical} logical bits needs a "
            f"{processor.circuit.n_wires}-wire circuit, got {circuit.n_wires}"
        )
    processor.circuit = circuit
    for block, layout in zip(processor.blocks, layouts):
        block.roles = _roles_from_json(layout, block)
    processor.logical_gates_applied = data["gates_applied"]
    return processor


# ----------------------------------------------------------------------
# Observables
# ----------------------------------------------------------------------

#: The observables that count failures through a decoder, by wire tag.
_DECODED_OBSERVABLES = {
    "decode": DecodeObservable,
    "decoded_mismatch": DecodedMismatchObservable,
}


def _observable_to_json(observable: object, circuits: dict | None) -> dict:
    """The observable's tagged wire form, or :class:`SerializationError`."""
    for kind, cls in _DECODED_OBSERVABLES.items():
        if type(observable) is cls:
            return {
                "kind": kind,
                "decoder": _decoder_to_json(observable.decoder, circuits),
                "expected": list(observable.expected),
            }
    raise SerializationError(
        f"observable type {type(observable).__name__} has no wire form; "
        f"only DecodeObservable and DecodedMismatchObservable serialise"
    )


def _observable_from_json(data: dict, circuits: Mapping[str, Circuit]):
    kind = data.get("kind")
    cls = _DECODED_OBSERVABLES.get(kind)
    if cls is None:
        raise SerializationError(f"unknown observable kind {kind!r}")
    return cls(
        decoder=_decoder_from_json(data["decoder"], circuits),
        expected=tuple(data["expected"]),
    )


# ----------------------------------------------------------------------
# Specs
# ----------------------------------------------------------------------


def spec_to_json(spec: RunSpec, circuits: dict[str, dict] | None = None) -> dict:
    """The spec's versioned wire form, circuits as digest references.

    When ``circuits`` is given, each referenced circuit's wire form is
    recorded in it under its digest, so the caller can store it once
    (see :func:`spec_from_json` for the way back).

    The seed must be a plain integer or ``None`` — a live
    :class:`numpy.random.Generator` has consumed an unknowable amount
    of stream and cannot be reproduced from JSON, so it is refused
    rather than approximated.  (A stored point additionally needs a
    concrete integer; :func:`repro.jobs.store.point_address` decides
    that.)
    """
    seed = spec.seed
    if isinstance(seed, np.random.Generator):
        raise SerializationError(
            "a RunSpec carrying a live numpy Generator cannot be "
            "serialised; give each point an integer seed (see "
            "repro.noise.seeds.spawn_seeds)"
        )
    if seed is not None and not isinstance(seed, int):
        raise SerializationError(
            f"seed must be an int or None to serialise, got {type(seed).__name__}"
        )
    return {
        "format": SPEC_FORMAT_VERSION,
        "circuit": _circuit_reference(spec.circuit, circuits),
        "input_bits": list(spec.input_bits),
        "observable": _observable_to_json(spec.observable, circuits),
        "noise": noise_to_json(spec.noise),
        "trials": spec.trials,
        "seed": seed,
    }


def spec_from_json(data: dict, circuits: Mapping[str, Circuit]) -> RunSpec:
    """Rebuild a spec from :func:`spec_to_json` output.

    Each ``{"circuit_digest": d}`` reference, in the spec or inside its
    decoder, resolves to ``circuits[d]``, so specs sharing a circuit
    share one :class:`~repro.core.circuit.Circuit`.

    Unknown format versions are rejected: mis-parsing a future wire
    form into a plausible-but-wrong spec would silently corrupt every
    result derived from it.  So is any payload of the wrong shape, as
    a :class:`~repro.errors.SerializationError`.
    """
    try:
        version = data.get("format")
        if version != SPEC_FORMAT_VERSION:
            raise SerializationError(
                f"spec wire format {version!r} is not supported by this "
                f"code (expected {SPEC_FORMAT_VERSION}); regenerate the "
                f"manifest"
            )
        return RunSpec(
            circuit=_referenced_circuit(data["circuit"], circuits),
            input_bits=tuple(data["input_bits"]),
            observable=_observable_from_json(data["observable"], circuits),
            noise=noise_from_json(data["noise"]),
            trials=data["trials"],
            seed=data["seed"],
        )
    except (AttributeError, KeyError, TypeError) as exc:
        raise SerializationError(
            f"spec wire form has the wrong shape: {type(exc).__name__}: {exc}"
        ) from exc
