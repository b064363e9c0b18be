"""Level-1 fault-tolerant computation on repetition codewords.

Because the codewords of the repetition code are ``000`` and ``111``,
*any* reversible gate acts on logical values transversally: applying a
3-bit gate to the triple (bit i of codeword A, bit i of codeword B,
bit i of codeword C) for i = 0, 1, 2 applies the gate to the logical
values.  "After each gate operation, we apply our error-recovery
circuit" (Section 2) — :class:`LogicalProcessor` automates exactly
that schedule and is the building block of the fault-tolerant examples.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.bits import Bits
from repro.core.circuit import Circuit
from repro.core.gate import Gate
from repro.core.bitplane import BitplaneState
from repro.coding.recovery import RecoveryLayout, append_recovery
from repro.coding.repetition import THREE_BIT_CODE, mismatch_plane
from repro.errors import CodingError

import numpy as np

#: Wires occupied by one level-1 logical bit (codeword + ancillas).
WIRES_PER_LOGICAL_BIT = 9


def transversal_wire_triples(
    layouts: Sequence[RecoveryLayout],
) -> tuple[tuple[int, ...], ...]:
    """Wire tuples for a transversal gate across the given codewords.

    For operand codewords with data wires ``(a0,a1,a2)``, ``(b0,b1,b2)``,
    ... the i-th transversal application touches ``(ai, bi, ci, ...)``.
    """
    return tuple(
        tuple(layout.data[i] for layout in layouts) for i in range(3)
    )


def append_transversal_gate(
    circuit: Circuit, gate: Gate, layouts: Sequence[RecoveryLayout]
) -> None:
    """Append the three transversal applications of ``gate``."""
    if gate.arity != len(layouts):
        raise CodingError(
            f"gate {gate.name!r} has arity {gate.arity} but "
            f"{len(layouts)} codewords were given"
        )
    for wires in transversal_wire_triples(layouts):
        circuit.append_gate(gate, *wires)


class LogicalProcessor:
    """Builds a level-1 fault-tolerant circuit over ``n_logical`` bits.

    Each logical bit owns a nine-wire cell (3 data + 6 ancilla wires).
    :meth:`apply` emits a transversal logical gate followed by an
    error-recovery cycle on each operand codeword, per the paper's
    schedule.  The resulting :attr:`circuit` can be run noiselessly or
    handed to the Monte-Carlo engine.
    """

    def __init__(self, n_logical: int, include_resets: bool = True, name: str = ""):
        if n_logical < 1:
            raise CodingError(f"need >= 1 logical bit, got {n_logical}")
        self.n_logical = n_logical
        self.include_resets = include_resets
        self.circuit = Circuit(WIRES_PER_LOGICAL_BIT * n_logical, name=name)
        self.layouts: list[RecoveryLayout] = [
            RecoveryLayout.standard(offset=WIRES_PER_LOGICAL_BIT * index)
            for index in range(n_logical)
        ]
        self.logical_gates_applied = 0

    def __eq__(self, other: object) -> bool:
        """Value equality: same construction state, circuit, and layouts.

        Two processors compare equal when one could decode the other's
        output — the contract the JSON round-trip of
        :mod:`repro.runtime.serialization` relies on for
        ``RunSpec`` equality (specs embed a processor as their decode
        observable's decoder).
        """
        if not isinstance(other, LogicalProcessor):
            return NotImplemented
        return (
            self.n_logical == other.n_logical
            and self.include_resets == other.include_resets
            and self.logical_gates_applied == other.logical_gates_applied
            and self.layouts == other.layouts
            and self.circuit == other.circuit
        )

    def __hash__(self) -> int:
        # Only init-time immutable fields participate: layouts and the
        # circuit mutate as cycles append, and a hash that moved with
        # them would corrupt any set or frozen-dataclass hash (e.g.
        # DecodeObservable) holding the processor.  Collisions between
        # same-shape processors are fine; equality disambiguates.
        return hash((LogicalProcessor, self.n_logical, self.include_resets))

    # ------------------------------------------------------------------
    # Program construction
    # ------------------------------------------------------------------

    def apply(self, gate: Gate, *logical_bits: int, recover: bool = True) -> None:
        """Apply ``gate`` to logical bits transversally, then recover.

        ``recover=False`` skips the recovery cycles (useful for
        measuring the value of recovery in ablation experiments).
        """
        for bit in logical_bits:
            if not 0 <= bit < self.n_logical:
                raise CodingError(f"logical bit {bit} out of range")
        if len(set(logical_bits)) != len(logical_bits):
            raise CodingError(f"logical operands must be distinct: {logical_bits}")
        operands = [self.layouts[bit] for bit in logical_bits]
        append_transversal_gate(self.circuit, gate, operands)
        self.logical_gates_applied += 1
        if recover:
            for bit in logical_bits:
                self.recover(bit)

    def recover(self, logical_bit: int) -> None:
        """Append one recovery cycle on a single codeword."""
        self.layouts[logical_bit] = append_recovery(
            self.circuit, self.layouts[logical_bit], self.include_resets
        )

    def recover_all(self) -> None:
        """Append a recovery cycle on every codeword."""
        for bit in range(self.n_logical):
            self.recover(bit)

    # ------------------------------------------------------------------
    # Input/output helpers
    # ------------------------------------------------------------------

    def physical_input(self, logical_bits: Sequence[int]) -> Bits:
        """The physical input vector encoding the given logical bits.

        Data wires carry the codeword; ancillas start at zero.  Uses the
        *initial* layouts, so call before building or on a fresh
        processor's wire numbering.
        """
        if len(logical_bits) != self.n_logical:
            raise CodingError(
                f"expected {self.n_logical} logical bits, got {len(logical_bits)}"
            )
        state = [0] * self.circuit.n_wires
        for index, bit in enumerate(logical_bits):
            codeword = THREE_BIT_CODE.encode(bit)
            layout = RecoveryLayout.standard(offset=WIRES_PER_LOGICAL_BIT * index)
            for wire, value in zip(layout.data, codeword):
                state[wire] = value
        return tuple(state)

    def decode_output(self, state: Sequence[int]) -> tuple[int, ...]:
        """Majority-decode every codeword from a final physical state."""
        decoded = []
        for layout in self.layouts:
            word = tuple(state[w] for w in layout.data)
            decoded.append(THREE_BIT_CODE.decode(word))
        return tuple(decoded)

    def decode_batch(self, states: BitplaneState) -> np.ndarray:
        """Majority-decode every codeword across a Monte-Carlo batch.

        Returns an array of shape ``(trials, n_logical)``.
        """
        columns = [states.majority_of(layout.data) for layout in self.layouts]
        return np.stack(columns, axis=1)

    def decode_failure_plane(
        self, states: BitplaneState, expected_logical: Sequence[int]
    ) -> np.ndarray:
        """Packed per-trial decode-failure plane of a bit-plane batch.

        Bit ``t`` of the returned ``(n_words,)`` uint64 plane is set
        when trial ``t``'s majority-decoded logical word differs from
        ``expected_logical`` anywhere (see
        :func:`~repro.coding.repetition.mismatch_plane`).  This is the
        packed decode the runtime layer evaluates once across a whole
        stacked point batch.
        """
        return mismatch_plane(
            (states.majority_plane(layout.data) for layout in self.layouts),
            expected_logical,
            self.n_logical,
        )
