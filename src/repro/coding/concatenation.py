"""The concatenation scheme of Section 2.1 / Figure 3, as a compiler.

A level-``L`` bit is three level-``L−1`` bits; physically, a level-``L``
bit occupies ``9**L`` wires arranged as nine level-``L−1`` sub-blocks:
three *data* sub-blocks carrying the codeword and six *ancilla*
sub-blocks used (and re-initialised) by recovery at level ``L``.  The
bit blow-up ``S_L = 9**L`` of Section 2.3 is literally the size of this
layout.

The compiler lowers logical gates recursively, following the paper's
definition exactly:

* a gate at level 0 is a physical gate;
* a gate at level ``L`` applies the gate at level ``L−1`` transversally
  to the three data sub-block triples, then runs error recovery at
  level ``L`` on every operand block;
* recovery at level ``L`` re-initialises the six ancilla sub-blocks,
  then applies the Figure-2 pattern — three ``MAJ⁻¹`` then three
  ``MAJ`` — as *level-(L−1) gates* (each with its own recursive
  recovery).

With initialisation excluded from the census (the paper's ``E = 6``
convention) the compiled physical gate count of one level-``k`` gate is
exactly ``(3(1+E))**k = 21**k`` — the paper's ``Γ_k`` — which the test
suite checks by compiling and counting.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.core import library
from repro.core.bits import Bits, majority
from repro.core.circuit import Circuit
from repro.core.gate import Gate
from repro.core.bitplane import BitplaneState
from repro.coding.repetition import mismatch_plane
from repro.errors import CodingError

#: Sub-block indices playing each role, mirroring Figure 2's wires.
_DATA_ROLES = (0, 1, 2)
_ANCILLA_ROLES = (3, 4, 5, 6, 7, 8)


@dataclass
class Block:
    """A level-``L`` coded bit on ``9**L`` contiguous physical wires.

    ``data_children`` / ``ancilla_children`` hold the indices of the
    nine sub-blocks currently playing each role; recovery rotates these
    roles (the footnote-3 rotation) without moving any physical bits.
    """

    level: int
    base: int
    children: tuple["Block", ...] = field(default_factory=tuple)
    data_children: list[int] = field(default_factory=lambda: list(_DATA_ROLES))
    ancilla_children: list[int] = field(default_factory=lambda: list(_ANCILLA_ROLES))

    def __post_init__(self) -> None:
        if self.level < 0:
            raise CodingError(f"block level must be >= 0, got {self.level}")
        if self.level > 0 and len(self.children) != 9:
            raise CodingError(
                f"level-{self.level} block needs 9 children, got "
                f"{len(self.children)}"
            )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @staticmethod
    def allocate(level: int, base: int = 0) -> "Block":
        """Build a fresh block tree starting at physical wire ``base``."""
        if level == 0:
            return Block(level=0, base=base)
        child_size = 9 ** (level - 1)
        children = tuple(
            Block.allocate(level - 1, base + i * child_size) for i in range(9)
        )
        return Block(level=level, base=base, children=children)

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------

    @property
    def size(self) -> int:
        """Number of physical wires (``9**level``)."""
        return 9 ** self.level

    @property
    def wires(self) -> range:
        """The physical wire range occupied by this block."""
        return range(self.base, self.base + self.size)

    def data_blocks(self) -> list["Block"]:
        """Sub-blocks currently carrying the codeword."""
        if self.level == 0:
            raise CodingError("a level-0 block has no sub-blocks")
        return [self.children[i] for i in self.data_children]

    def ancilla_blocks(self) -> list["Block"]:
        """Sub-blocks currently serving as recovery ancillas."""
        if self.level == 0:
            raise CodingError("a level-0 block has no sub-blocks")
        return [self.children[i] for i in self.ancilla_children]

    def deep_data_wires(self) -> list[int]:
        """Physical wires carrying codeword bits, recursively."""
        if self.level == 0:
            return [self.base]
        wires: list[int] = []
        for child in self.data_blocks():
            wires.extend(child.deep_data_wires())
        return wires

    def advance_roles(self) -> None:
        """Rotate roles after a recovery at this block's level."""
        d0, d1, d2 = self.data_children
        a0, a1, a2, a3, a4, a5 = self.ancilla_children
        self.data_children = [d0, a0, a3]
        self.ancilla_children = [d1, d2, a1, a2, a4, a5]

    # ------------------------------------------------------------------
    # Logical value
    # ------------------------------------------------------------------

    def decode(self, state: Sequence[int]) -> int:
        """Recursive majority decoding of this block from a state."""
        if self.level == 0:
            return int(state[self.base])
        votes = tuple(child.decode(state) for child in self.data_blocks())
        return majority(votes)

    def majority_plane(self, states: BitplaneState) -> np.ndarray:
        """Packed recursive majority decoding of this block from a batch.

        A level-0 block is its wire's plane; above that, each trial's
        vote is ``(a & b) | (c & (a | b))`` over the planes of the
        current data sub-blocks, so no trial is ever unpacked.  Padding
        bits beyond the batch's trial count are unspecified.
        """
        if self.level == 0:
            return states.planes[self.base]
        a, b, c = (child.majority_plane(states) for child in self.data_blocks())
        return (a & b) | (c & (a | b))


# ----------------------------------------------------------------------
# Compilation
# ----------------------------------------------------------------------


def _reset_block(circuit: Circuit, block: Block) -> None:
    """Re-initialise every wire of ``block`` using 3-bit reset ops."""
    wires = list(block.wires)
    if len(wires) % 3 == 0:
        for start in range(0, len(wires), 3):
            circuit.append_reset(*wires[start : start + 3])
    else:  # level-0 ancilla: a single wire
        circuit.append_reset(*wires)


def compile_recovery(circuit: Circuit, block: Block) -> None:
    """Emit one error-recovery cycle at ``block.level`` onto ``circuit``."""
    if block.level == 0:
        raise CodingError("recovery is defined for levels >= 1")
    ancillas = block.ancilla_blocks()
    if block.level == 1:
        # Figure 2 exactly: two 3-bit initialisation operations.
        anc_wires = [anc.base for anc in ancillas]
        circuit.append_reset(*anc_wires[0:3])
        circuit.append_reset(*anc_wires[3:6])
    else:
        for ancilla in ancillas:
            _reset_block(circuit, ancilla)
    data = block.data_blocks()
    # Encode: fan each data sub-block onto one ancilla from each group.
    for i in range(3):
        compile_gate(
            circuit, library.MAJ_INV, [data[i], ancillas[i], ancillas[i + 3]]
        )
    # Decode: block majorities into the first operand of each triple.
    decode_triples = (
        (data[0], data[1], data[2]),
        (ancillas[0], ancillas[1], ancillas[2]),
        (ancillas[3], ancillas[4], ancillas[5]),
    )
    for triple in decode_triples:
        compile_gate(circuit, library.MAJ, list(triple))
    block.advance_roles()


def compile_gate(
    circuit: Circuit,
    gate: Gate,
    operands: Sequence[Block],
    recover: bool = True,
) -> None:
    """Emit a logical ``gate`` on equal-level operand blocks.

    At level 0 this is a physical gate.  At level ``L`` the gate is
    applied transversally at level ``L−1`` and, when ``recover`` is
    true, each operand is recovered at level ``L`` — the paper's
    definition of a level-``L`` gate (Figure 3).
    """
    levels = {block.level for block in operands}
    if len(levels) != 1:
        raise CodingError(f"operand blocks must share a level, got {levels}")
    if gate.arity != len(operands):
        raise CodingError(
            f"gate {gate.name!r} has arity {gate.arity} but "
            f"{len(operands)} blocks were given"
        )
    level = levels.pop()
    if level == 0:
        circuit.append_gate(gate, *[block.base for block in operands])
        return
    data = [block.data_blocks() for block in operands]
    for i in range(3):
        compile_gate(circuit, gate, [d[i] for d in data])
    if recover:
        for block in operands:
            compile_recovery(circuit, block)


# ----------------------------------------------------------------------
# Whole computations
# ----------------------------------------------------------------------


class ConcatenatedComputation:
    """A fault-tolerant computation compiled at concatenation level L.

    Allocates ``n_logical`` level-``L`` blocks side by side and lowers
    each logical gate through :func:`compile_gate`.  The analogue of
    :class:`~repro.coding.logical.LogicalProcessor` for arbitrary level.
    """

    def __init__(self, n_logical: int, level: int, name: str = ""):
        if n_logical < 1:
            raise CodingError(f"need >= 1 logical bit, got {n_logical}")
        if level < 1:
            raise CodingError(f"concatenation level must be >= 1, got {level}")
        self.level = level
        block_size = 9 ** level
        self.blocks = [
            Block.allocate(level, base=i * block_size) for i in range(n_logical)
        ]
        self.circuit = Circuit(n_logical * block_size, name=name)

    @property
    def n_logical(self) -> int:
        """Number of logical bits."""
        return len(self.blocks)

    def apply(self, gate: Gate, *logical_bits: int, recover: bool = True) -> None:
        """Apply a logical gate (then recovery) at the top level."""
        if len(set(logical_bits)) != len(logical_bits):
            raise CodingError(f"logical operands must be distinct: {logical_bits}")
        operands = [self.blocks[bit] for bit in logical_bits]
        compile_gate(self.circuit, gate, operands, recover=recover)

    def recover(self, logical_bit: int) -> None:
        """Run top-level recovery on one logical bit."""
        compile_recovery(self.circuit, self.blocks[logical_bit])

    def physical_input(self, logical_bits: Sequence[int]) -> Bits:
        """Encode logical bits into a physical input vector.

        Deep data wires carry the bit; everything else starts at zero.
        Uses the blocks' *current* role maps, so call on a fresh
        computation (before any recovery has rotated roles).
        """
        if len(logical_bits) != self.n_logical:
            raise CodingError(
                f"expected {self.n_logical} logical bits, got {len(logical_bits)}"
            )
        state = [0] * self.circuit.n_wires
        for block, bit in zip(self.blocks, logical_bits):
            if bit not in (0, 1):
                raise CodingError(f"logical bit must be 0 or 1, got {bit!r}")
            for wire in block.deep_data_wires():
                state[wire] = bit
        return tuple(state)

    def decode_output(self, state: Sequence[int]) -> tuple[int, ...]:
        """Recursive majority decode of every logical bit."""
        return tuple(block.decode(state) for block in self.blocks)

    def decode_failure_plane(
        self, states: BitplaneState, expected_logical: Sequence[int]
    ) -> np.ndarray:
        """Packed per-trial decode-failure plane of a bit-plane batch.

        The concatenated analogue of
        :meth:`~repro.coding.logical.LogicalProcessor.decode_failure_plane`:
        bit ``t`` is set when trial ``t``'s recursively decoded logical
        word differs from ``expected_logical`` anywhere.
        """
        return mismatch_plane(
            (block.majority_plane(states) for block in self.blocks),
            expected_logical,
            self.n_logical,
        )


def concatenated_gate_circuit(
    gate: Gate, level: int, recover: bool = True
) -> tuple[Circuit, list[Block]]:
    """One logical 3-bit gate at ``level``, fully compiled.

    Returns the circuit and the three operand blocks (whose role maps
    reflect the post-recovery state).
    """
    computation = ConcatenatedComputation(gate.arity, level)
    computation.apply(gate, *range(gate.arity), recover=recover)
    return computation.circuit, computation.blocks


def gamma_census(circuit: Circuit) -> dict[str, int]:
    """Physical op census of a compiled circuit: gates vs resets."""
    gates = circuit.gate_count(include_resets=False)
    resets = len(circuit) - gates
    return {"gates": gates, "resets": resets, "total": len(circuit)}
