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

Level 1 is the base case: its sub-blocks are single wires, so a
level-1 gate is three physical gates on codeword bits and a level-1
recovery is Figure 2 exactly (two 3-bit resets, three ``MAJ⁻¹``, three
``MAJ``).  :func:`recovery_circuit` and :func:`repeated_recovery` build
that cycle on the standard nine wires.

With initialisation excluded from the census (the paper's ``E = 6``
convention) the compiled physical gate count of one level-``k`` gate is
exactly ``(3(1+E))**k = 21**k`` — the paper's ``Γ_k`` — which the test
suite checks by compiling and counting.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.core import library
from repro.core.bits import majority
from repro.core.circuit import Circuit
from repro.core.gate import Gate
from repro.core.bitplane import BitplaneState
from repro.coding.recovery import RecoveryLayout
from repro.errors import CodingError


@dataclass
class Block:
    """A level-``L`` coded bit on ``9**L`` contiguous physical wires.

    ``roles`` is a :class:`~repro.coding.recovery.RecoveryLayout` over
    the indices ``0..8`` of the nine sub-blocks: which carry the
    codeword and which serve as recovery ancillas.  Recovery advances
    it (the footnote-3 rotation) without moving any physical bits.
    """

    level: int
    base: int
    children: tuple["Block", ...] = ()
    roles: RecoveryLayout = RecoveryLayout.standard()

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

    def sub_blocks(self, indices: Sequence[int]) -> list["Block"]:
        """The sub-blocks at ``indices`` (positions in :attr:`roles`)."""
        if self.level == 0:
            raise CodingError("a level-0 block has no sub-blocks")
        return [self.children[i] for i in indices]

    def data_blocks(self) -> list["Block"]:
        """Sub-blocks currently carrying the codeword."""
        return self.sub_blocks(self.roles.data)

    def deep_data_wires(self) -> list[int]:
        """Physical wires carrying codeword bits, recursively."""
        if self.level == 0:
            return [self.base]
        wires: list[int] = []
        for child in self.data_blocks():
            wires.extend(child.deep_data_wires())
        return wires

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


def compile_recovery(
    circuit: Circuit, block: Block, include_resets: bool = True
) -> None:
    """Emit one error-recovery cycle at ``block.level`` onto ``circuit``.

    The Figure-2 pattern over the block's sub-blocks: reset the two
    ancilla groups with 3-bit resets, fan each data sub-block out with
    ``MAJ⁻¹``, then vote with ``MAJ``, all as level-``L−1`` gates.
    ``include_resets=False`` omits the resets at every level (the
    paper's ``E = 6`` accounting); callers are then responsible for
    the ancillas being clean.
    """
    if block.level == 0:
        raise CodingError("recovery is defined for levels >= 1")
    roles = block.roles
    if include_resets:
        for group in roles.reset_groups():
            wires = [w for child in block.sub_blocks(group) for w in child.wires]
            for start in range(0, len(wires), 3):
                circuit.append_reset(*wires[start : start + 3])
    for triple in roles.encode_triples():
        compile_gate(
            circuit,
            library.MAJ_INV,
            block.sub_blocks(triple),
            include_resets=include_resets,
        )
    for triple in roles.decode_triples():
        compile_gate(
            circuit,
            library.MAJ,
            block.sub_blocks(triple),
            include_resets=include_resets,
        )
    block.roles = roles.advance()


def compile_gate(
    circuit: Circuit,
    gate: Gate,
    operands: Sequence[Block],
    recover: bool = True,
    include_resets: bool = True,
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
        compile_gate(
            circuit, gate, [d[i] for d in data], include_resets=include_resets
        )
    if recover:
        for block in operands:
            compile_recovery(circuit, block, include_resets)


# ----------------------------------------------------------------------
# Standard circuits
# ----------------------------------------------------------------------


def recovery_circuit(include_resets: bool = True) -> Circuit:
    """The Figure-2 recovery circuit on the standard nine-wire layout.

    The recovered codeword lands on
    :data:`~repro.coding.recovery.OUTPUT_WIRES`.
    """
    return repeated_recovery(1, include_resets, "EL")[0]


def repeated_recovery(
    cycles: int, include_resets: bool = True, name: str = "EL^n"
) -> tuple[Circuit, RecoveryLayout]:
    """``cycles`` chained recovery cycles on nine wires.

    Returns the circuit and the final layout (whose ``data`` wires hold
    the surviving codeword).
    """
    if cycles < 0:
        raise CodingError(f"cycle count must be >= 0, got {cycles}")
    circuit = Circuit(9, name=name)
    block = Block.allocate(1)
    for _ in range(cycles):
        compile_recovery(circuit, block, include_resets)
    # Based at wire 0, the sub-block indices are the wires.
    return circuit, block.roles


def gamma_census(circuit: Circuit) -> dict[str, int]:
    """Physical op census of a compiled circuit: gates vs resets."""
    gates = circuit.gate_count(include_resets=False)
    resets = len(circuit) - gates
    return {"gates": gates, "resets": resets, "total": len(circuit)}
