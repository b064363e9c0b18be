"""Fault-tolerant computation on concatenated repetition codewords.

Because the codewords of the repetition code are ``000`` and ``111``,
*any* reversible gate acts on logical values transversally: applying a
3-bit gate to the triple (bit i of codeword A, bit i of codeword B,
bit i of codeword C) for i = 0, 1, 2 applies the gate to the logical
values.  "After each gate operation, we apply our error-recovery
circuit" (Section 2) — :class:`LogicalProcessor` automates exactly
that schedule, at any concatenation level, through the one compiler of
:mod:`repro.coding.concatenation`.  It is the building block of the
fault-tolerant examples, the threshold search and Figure 3.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.core.bits import Bits
from repro.core.circuit import Circuit
from repro.core.gate import Gate
from repro.core.bitplane import BitplaneState, unpack_words
from repro.coding.concatenation import Block, compile_gate, compile_recovery
from repro.coding.repetition import mismatch_plane
from repro.errors import CodingError


class LogicalProcessor:
    """Builds a fault-tolerant circuit over ``n_logical`` bits.

    Each logical bit is a level-``level``
    :class:`~repro.coding.concatenation.Block` of ``9**level`` wires
    (at level 1, a nine-wire cell of 3 data + 6 ancilla wires).
    :meth:`apply` lowers a logical gate through
    :func:`~repro.coding.concatenation.compile_gate`: the gate applied
    transversally, then an error-recovery cycle on each operand, per
    the paper's schedule.  ``include_resets=False`` omits the ancilla
    resets at every level.  The resulting :attr:`circuit` can be run
    noiselessly or handed to the Monte-Carlo engine.
    """

    def __init__(
        self,
        n_logical: int,
        level: int = 1,
        include_resets: bool = True,
        name: str = "",
    ):
        if n_logical < 1:
            raise CodingError(f"need >= 1 logical bit, got {n_logical}")
        if level < 1:
            raise CodingError(f"concatenation level must be >= 1, got {level}")
        self.level = level
        self.include_resets = include_resets
        size = 9 ** level
        self.blocks = [Block.allocate(level, base=i * size) for i in range(n_logical)]
        self.circuit = Circuit(n_logical * size, name=name)
        self.logical_gates_applied = 0
        # Inputs are encoded on the data wires of the *initial* roles,
        # whatever recovery has rotated since.
        self._input_wires = [block.deep_data_wires() for block in self.blocks]

    @property
    def n_logical(self) -> int:
        """Number of logical bits."""
        return len(self.blocks)

    def __eq__(self, other: object) -> bool:
        """Value equality: same construction state, circuit, and roles.

        Two processors compare equal when one could decode the other's
        output — the contract the JSON round-trip of
        :mod:`repro.runtime.serialization` relies on for
        ``RunSpec`` equality (specs embed a processor as their decode
        observable's decoder).
        """
        if not isinstance(other, LogicalProcessor):
            return NotImplemented
        return (
            self.level == other.level
            and self.include_resets == other.include_resets
            and self.logical_gates_applied == other.logical_gates_applied
            and self.blocks == other.blocks
            and self.circuit == other.circuit
        )

    def __hash__(self) -> int:
        # Only init-time immutable fields participate: roles and the
        # circuit mutate as cycles append, and a hash that moved with
        # them would corrupt any set or frozen-dataclass hash (e.g.
        # DecodeObservable) holding the processor.  Collisions between
        # same-shape processors are fine; equality disambiguates.
        return hash(
            (LogicalProcessor, self.n_logical, self.level, self.include_resets)
        )

    # ------------------------------------------------------------------
    # Program construction
    # ------------------------------------------------------------------

    def _block(self, logical_bit: int) -> Block:
        if not 0 <= logical_bit < self.n_logical:
            raise CodingError(
                f"logical bit {logical_bit} out of range for "
                f"{self.n_logical} logical bits"
            )
        return self.blocks[logical_bit]

    def apply(self, gate: Gate, *logical_bits: int, recover: bool = True) -> None:
        """Apply ``gate`` to logical bits transversally, then recover.

        ``recover=False`` skips the top-level recovery cycles (useful
        for measuring the value of recovery in ablation experiments).
        """
        operands = [self._block(bit) for bit in logical_bits]
        if len(set(logical_bits)) != len(logical_bits):
            raise CodingError(f"logical operands must be distinct: {logical_bits}")
        compile_gate(self.circuit, gate, operands, recover, self.include_resets)
        self.logical_gates_applied += 1

    def recover(self, logical_bit: int) -> None:
        """Append one top-level recovery cycle on a single logical bit."""
        compile_recovery(self.circuit, self._block(logical_bit), self.include_resets)

    # ------------------------------------------------------------------
    # Input/output helpers
    # ------------------------------------------------------------------

    def physical_input(self, logical_bits: Sequence[int]) -> Bits:
        """The physical input vector encoding the given logical bits.

        The data wires of the initial roles carry the bit, recursively;
        everything else starts at zero.  The vector is the same before
        and after the program is built.
        """
        if len(logical_bits) != self.n_logical:
            raise CodingError(
                f"expected {self.n_logical} logical bits, got {len(logical_bits)}"
            )
        state = [0] * self.circuit.n_wires
        for wires, bit in zip(self._input_wires, logical_bits):
            if bit not in (0, 1):
                raise CodingError(f"logical bit must be 0 or 1, got {bit!r}")
            for wire in wires:
                state[wire] = bit
        return tuple(state)

    def decode_output(self, state: Sequence[int]) -> tuple[int, ...]:
        """Recursive majority decode of every logical bit from one state."""
        return tuple(block.decode(state) for block in self.blocks)

    def decode_batch(self, states: BitplaneState) -> np.ndarray:
        """Majority-decode every logical bit across a Monte-Carlo batch.

        Returns a uint8 array of shape ``(trials, n_logical)``.
        """
        columns = [
            unpack_words(block.majority_plane(states), states.trials)
            for block in self.blocks
        ]
        return np.stack(columns, axis=1)

    def decode_failure_plane(
        self, states: BitplaneState, expected_logical: Sequence[int]
    ) -> np.ndarray:
        """Packed per-trial decode-failure plane of a bit-plane batch.

        Bit ``t`` of the returned ``(n_words,)`` uint64 plane is set
        when trial ``t``'s recursively decoded logical word differs
        from ``expected_logical`` anywhere (see
        :func:`~repro.coding.repetition.mismatch_plane`).  This is the
        packed decode the runtime layer evaluates once across a whole
        stacked point batch.
        """
        return mismatch_plane(
            (block.majority_plane(states) for block in self.blocks),
            expected_logical,
            self.n_logical,
        )


def concatenated_gate_circuit(
    gate: Gate, level: int
) -> tuple[Circuit, list[Block]]:
    """One logical gate at ``level``, fully compiled.

    Returns the circuit and the operand blocks (whose roles reflect the
    post-recovery state).
    """
    processor = LogicalProcessor(gate.arity, level)
    processor.apply(gate, *range(gate.arity))
    return processor.circuit, processor.blocks
