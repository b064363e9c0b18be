"""Reversible circuits as ordered sequences of operations on wires.

The paper's gate-array picture (space on the y-axis, time on the
x-axis) maps directly onto :class:`Circuit`: wires are fixed bit
locations and operations are applied left to right.  Two kinds of
operation exist:

* **gate** operations — a :class:`~repro.core.gate.Gate` applied to a
  tuple of distinct wires;
* **reset** operations — re-initialisation of a tuple of wires to a
  constant, modelling the paper's 3-bit ancilla initialisations (the
  only irreversible primitive, and the mechanism by which entropy
  leaves the computer).

Circuits compose (``+``) and invert (when reset-free); they also
provide the op census used by the threshold accounting.
:func:`circuit_to_json` and :func:`circuit_from_json` are their one
JSON wire form.
"""

from __future__ import annotations

import enum
import functools
from collections import Counter
from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field
from hashlib import sha256

from repro.core import library
from repro.core.gate import Gate
from repro.errors import CircuitError, SerializationError


class OpKind(enum.Enum):
    """The two kinds of circuit operation."""

    GATE = "gate"
    RESET = "reset"


@dataclass(frozen=True)
class Operation:
    """One column of the gate array: a gate or a reset on some wires."""

    kind: OpKind
    wires: tuple[int, ...]
    gate: Gate | None = None
    reset_value: int = 0

    def __post_init__(self) -> None:
        if len(set(self.wires)) != len(self.wires):
            raise CircuitError(f"operation wires must be distinct: {self.wires}")
        if not self.wires:
            raise CircuitError("operation must touch at least one wire")
        if self.kind is OpKind.GATE:
            if self.gate is None:
                raise CircuitError("gate operation requires a gate")
            if self.gate.arity != len(self.wires):
                raise CircuitError(
                    f"gate {self.gate.name!r} has arity {self.gate.arity} but "
                    f"was applied to {len(self.wires)} wires"
                )
        else:
            if self.gate is not None:
                raise CircuitError("reset operation must not carry a gate")
            if self.reset_value not in (0, 1):
                raise CircuitError(
                    f"reset value must be 0 or 1, got {self.reset_value!r}"
                )

    @property
    def is_gate(self) -> bool:
        """True for gate operations."""
        return self.kind is OpKind.GATE

    @property
    def is_reset(self) -> bool:
        """True for reset operations."""
        return self.kind is OpKind.RESET

    @property
    def label(self) -> str:
        """Display/census name: the gate name, or ``RESET``."""
        if self.is_gate:
            assert self.gate is not None
            return self.gate.name
        return "RESET"

    def remapped(self, mapping: Mapping[int, int]) -> "Operation":
        """The same operation on relabelled wires."""
        try:
            wires = tuple(mapping[w] for w in self.wires)
        except KeyError as exc:
            raise CircuitError(f"wire {exc.args[0]} missing from remapping") from exc
        return Operation(
            kind=self.kind, wires=wires, gate=self.gate, reset_value=self.reset_value
        )


@dataclass
class Circuit:
    """An ordered list of operations on ``n_wires`` wires.

    The mutating ``append_*`` helpers return ``self`` so circuits can be
    built fluently::

        circuit = Circuit(3).cnot(0, 1).cnot(0, 2).toffoli(1, 2, 0)
    """

    n_wires: int
    name: str = ""
    _ops: list[Operation] = field(default_factory=list)
    #: The :meth:`content_key` digest, computed on first use and cleared
    #: by :meth:`append` (every builder goes through it).
    _digest: str | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.n_wires < 1:
            raise CircuitError(f"circuit needs >= 1 wire, got {self.n_wires}")
        for op in self._ops:
            self._validate(op)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def _validate(self, op: Operation) -> None:
        for wire in op.wires:
            if not 0 <= wire < self.n_wires:
                raise CircuitError(
                    f"wire {wire} out of range for circuit with "
                    f"{self.n_wires} wires"
                )

    def append(self, op: Operation) -> "Circuit":
        """Append a pre-built operation."""
        self._validate(op)
        self._ops.append(op)
        self._digest = None
        return self

    def append_gate(self, gate: Gate, *wires: int) -> "Circuit":
        """Append ``gate`` applied to ``wires`` (in gate-wire order)."""
        return self.append(Operation(kind=OpKind.GATE, wires=tuple(wires), gate=gate))

    def append_reset(self, *wires: int, value: int = 0) -> "Circuit":
        """Append a reset of ``wires`` to ``value``."""
        return self.append(
            Operation(kind=OpKind.RESET, wires=tuple(wires), reset_value=value)
        )

    # Named conveniences for the standard library ----------------------

    def x(self, wire: int) -> "Circuit":
        """NOT on one wire."""
        return self.append_gate(library.X, wire)

    def cnot(self, control: int, target: int) -> "Circuit":
        """Controlled NOT."""
        return self.append_gate(library.CNOT, control, target)

    def swap(self, a: int, b: int) -> "Circuit":
        """Exchange two wires."""
        return self.append_gate(library.SWAP, a, b)

    def toffoli(self, control_a: int, control_b: int, target: int) -> "Circuit":
        """Doubly-controlled NOT."""
        return self.append_gate(library.TOFFOLI, control_a, control_b, target)

    def maj(self, q0: int, q1: int, q2: int) -> "Circuit":
        """The reversible majority gate of Table 1."""
        return self.append_gate(library.MAJ, q0, q1, q2)

    def maj_inv(self, q0: int, q1: int, q2: int) -> "Circuit":
        """The inverse majority gate (encoder/fan-out)."""
        return self.append_gate(library.MAJ_INV, q0, q1, q2)

    # ------------------------------------------------------------------
    # Sequence behaviour
    # ------------------------------------------------------------------

    @property
    def ops(self) -> tuple[Operation, ...]:
        """The operations, in time order."""
        return tuple(self._ops)

    def __len__(self) -> int:
        return len(self._ops)

    def __iter__(self) -> Iterator[Operation]:
        return iter(self._ops)

    def __getitem__(self, item: int | slice) -> "Operation | Circuit":
        if isinstance(item, slice):
            return Circuit(self.n_wires, name=self.name, _ops=list(self._ops[item]))
        return self._ops[item]

    # ------------------------------------------------------------------
    # Algebra
    # ------------------------------------------------------------------

    def copy(self, name: str | None = None) -> "Circuit":
        """A shallow copy (operations are immutable)."""
        return Circuit(
            self.n_wires,
            name=self.name if name is None else name,
            _ops=list(self._ops),
        )

    def __add__(self, other: "Circuit") -> "Circuit":
        if other.n_wires != self.n_wires:
            raise CircuitError(
                f"cannot concatenate circuits on {self.n_wires} and "
                f"{other.n_wires} wires"
            )
        return Circuit(
            self.n_wires,
            name=self.name or other.name,
            _ops=list(self._ops) + list(other._ops),
        )

    def inverse(self, name: str | None = None) -> "Circuit":
        """Reverse the circuit, inverting each gate.

        Resets are irreversible, so inverting a circuit containing them
        raises :class:`CircuitError`.
        """
        inverted = Circuit(
            self.n_wires,
            name=(self.name + "⁻¹") if name is None and self.name else (name or ""),
        )
        for op in reversed(self._ops):
            if op.is_reset:
                raise CircuitError("cannot invert a circuit containing resets")
            assert op.gate is not None
            inverted.append_gate(op.gate.inverse(), *op.wires)
        return inverted

    # ------------------------------------------------------------------
    # Census and structure
    # ------------------------------------------------------------------

    def content_key(self) -> str:
        """The circuit's content identity: a hex SHA-256 digest.

        The digest covers the wire count and the exact op sequence,
        each op expanded field by field (kind, wires, reset value, and
        the gate's name/arity/full permutation table) rather than via
        ``repr``: ``Gate.__repr__`` elides the table, and a key that
        ignored tables would collide content-distinct circuits whose
        gates merely share a name.  Two circuits built independently
        but op-for-op identical share one key, while any mutation
        (appending, remapping, a different reset value) produces a
        different one.  The name is *not* part of the key: content
        identity is about behaviour-bearing structure.

        The digest is computed once and cached on the instance until
        the next :meth:`append`.  It drives the compile cache
        (:mod:`repro.core.compiled`), executor and job-shard grouping
        and the synthesis identity database
        (:mod:`repro.synth.database`, whose tie-break orders by it).

        It is one of two circuit digests.  The other, the SHA-256 of
        the canonical JSON wire text
        (``repro.runtime.serialization._circuit_wire``), covers the
        name too: it names a job's circuit blobs and, as a spec's
        circuit reference, enters every store point key and shard ID.
        Both are pinned (this one by ``tests/coding/test_construction_pins.py``
        and ``tests/synth/test_synth_pins.py``, the wire digest through
        ``tests/jobs/test_key_pins.py``), so they stay apart: folding
        one into the other would move stored keys or identities.
        """
        if self._digest is None:
            material = repr(
                (
                    self.n_wires,
                    tuple(
                        (
                            op.kind.value,
                            op.wires,
                            op.reset_value,
                            None
                            if op.gate is None
                            else (op.gate.name, op.gate.arity, op.gate.table),
                        )
                        for op in self._ops
                    ),
                )
            )
            self._digest = sha256(material.encode()).hexdigest()
        return self._digest

    def count_ops(self) -> Counter:
        """Histogram of operation labels (gate names and ``RESET``)."""
        return Counter(op.label for op in self._ops)

    def gate_count(self, include_resets: bool = True) -> int:
        """Number of operations, optionally excluding resets."""
        if include_resets:
            return len(self._ops)
        return sum(1 for op in self._ops if op.is_gate)

    @property
    def has_resets(self) -> bool:
        """True when the circuit contains a reset operation."""
        return any(op.is_reset for op in self._ops)

    def wires_touched(self) -> frozenset[int]:
        """Wires used by at least one operation."""
        touched: set[int] = set()
        for op in self._ops:
            touched.update(op.wires)
        return frozenset(touched)

    def depth(self) -> int:
        """Greedy ASAP layering depth (ops on disjoint wires overlap)."""
        frontier = [0] * self.n_wires
        depth = 0
        for op in self._ops:
            layer = 1 + max(frontier[w] for w in op.wires)
            for w in op.wires:
                frontier[w] = layer
            depth = max(depth, layer)
        return depth

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        label = f" {self.name!r}" if self.name else ""
        return f"Circuit({self.n_wires} wires,{label} {len(self._ops)} ops)"


# ----------------------------------------------------------------------
# The wire form
# ----------------------------------------------------------------------


def circuit_to_json(circuit: Circuit) -> dict:
    """The circuit's JSON wire form: a gate table pool plus an op list.

    Each distinct gate is written once, with its name, arity and full
    table, and ops reference it by index, so a 108-op recovery cycle
    built from three gates carries three tables, not 108.  This is the
    one circuit codec: spec wire forms, job circuit blobs and the
    synthesis identity database all store circuits this way.
    """
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


@functools.lru_cache(maxsize=256)
def _gate_of(name: str, arity: int, table: tuple[int, ...]) -> Gate:
    return Gate(name=name, arity=arity, table=table)


def _interned_gate(name, arity, table) -> Gate:
    """One shared, validated :class:`Gate` per distinct wire-form gate.

    The identity database repeats a handful of gates across hundreds
    of records, so each is built and bijection-checked once.  The key
    admits only exact ``int`` entries: ``1.0 == 1`` would otherwise let
    a tampered table hit a valid gate's cache entry.
    """
    if type(arity) is not int or any(type(image) is not int for image in table):
        raise SerializationError(
            f"gate {name!r}: arity and table entries must be integers"
        )
    return _gate_of(name, arity, table)


def circuit_from_json(data: dict) -> Circuit:
    """Rebuild a circuit from :func:`circuit_to_json` output.

    Gate and circuit construction re-validate everything (bijective
    tables, wire ranges, arity matches), so a tampered payload fails
    as a library error instead of producing a silently wrong circuit.
    Equal gates decode to one shared :class:`Gate`.
    """
    gates = [
        _interned_gate(g["name"], g["arity"], tuple(g["table"]))
        for g in data["gates"]
    ]
    circuit = Circuit(data["n_wires"], name=data.get("name", ""))
    for op in data["ops"]:
        wires = tuple(op["wires"])
        if op["kind"] == "gate":
            index = op["gate"]
            # A negative index would silently pick a gate from the end
            # of the pool.
            if type(index) is not int or not 0 <= index < len(gates):
                raise SerializationError(
                    f"gate index {index!r} is outside the pool of "
                    f"{len(gates)} gate(s)"
                )
            circuit.append(Operation(OpKind.GATE, wires, gate=gates[index]))
        elif op["kind"] == "reset":
            circuit.append(
                Operation(OpKind.RESET, wires, reset_value=op["value"])
            )
        else:
            raise SerializationError(f"unknown op kind {op['kind']!r}")
    return circuit
