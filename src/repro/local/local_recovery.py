"""Near-neighbour error-recovery circuits (Sections 3.1 and 3.2).

**1D (Figure 7).**  Nine line positions hold the labels
``q0 q3 q6 q1 q4 q7 q2 q5 q8`` — data at positions 0, 3, 6 with two
ancillas after each.  The cycle is:

1. reset the ancilla pairs (positions ``1,2 / 4,5 / 7,8``);
2. ``MAJ⁻¹`` on the three contiguous position triples (the encode
   triples land pre-grouped on the line);
3. nine adjacent SWAPs — fused into four ``SWAP3`` gates plus one
   ``SWAP`` — permute the line into label order;
4. ``MAJ`` on the three contiguous triples; the recovered codeword
   lands back on positions 0, 3, 6, so cycles chain with no rotation.

Census: 6 MAJ-type + 4 SWAP3 + 1 SWAP = 11 gates, the paper's
no-initialisation count.  The paper books initialisation as two 3-bit
operations (6 ancilla bits / 3); the physically local circuit uses
three 2-bit resets — both numbers are exposed.

**2D (Figure 4).**  On the 3×3 tile the recovery is local *as is*:
with the codeword on a column, the encode triples are rows and the
decode triples are columns (or vice versa).  Each cycle flips the
orientation; :class:`TileRecovery` tracks it so cycles chain forever,
at the non-local operation count (2 resets + 6 MAJ-type = 8).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core import library
from repro.core.circuit import Circuit
from repro.local.lattice import Chain, Grid
from repro.local.routing import (
    PackedOp,
    adjacent_swaps_to_sort,
    append_packed,
    pack_swaps,
)
from repro.errors import CodingError, LocalityError

# ----------------------------------------------------------------------
# 1D
# ----------------------------------------------------------------------

#: Label (q-index) held at each line position at the start of a cycle.
ONE_D_LINE_LABELS: tuple[int, ...] = (0, 3, 6, 1, 4, 7, 2, 5, 8)

#: Line positions of the codeword at the start (and end) of each cycle.
ONE_D_DATA_POSITIONS: tuple[int, int, int] = (0, 3, 6)

#: Ancilla positions, reset pairwise at the start of each cycle.
ONE_D_RESET_PAIRS: tuple[tuple[int, int], ...] = ((1, 2), (4, 5), (7, 8))

#: Paper's operation count for the 1D recovery: 6 MAJ + 4 SWAP3 +
#: 1 SWAP + 2 idealised 3-bit initialisations.
ONE_D_RECOVERY_OPS_WITH_INIT = 13
ONE_D_RECOVERY_OPS_WITHOUT_INIT = 11


def one_d_routing_ops() -> list[PackedOp]:
    """The fused routing network of Figure 7 (4 SWAP3 + 1 SWAP)."""
    swaps = adjacent_swaps_to_sort(list(ONE_D_LINE_LABELS))
    return pack_swaps(swaps)


def append_one_d_recovery(
    circuit: Circuit, include_resets: bool = True
) -> None:
    """Append one Figure-7 recovery cycle (wires = line positions 0..8)."""
    if circuit.n_wires != 9:
        raise CodingError(
            f"the 1D recovery acts on 9 wires, circuit has {circuit.n_wires}"
        )
    if include_resets:
        for pair in ONE_D_RESET_PAIRS:
            circuit.append_reset(*pair)
    for base in (0, 3, 6):
        circuit.maj_inv(base, base + 1, base + 2)
    append_packed(circuit, one_d_routing_ops())
    for base in (0, 3, 6):
        circuit.maj(base, base + 1, base + 2)


def one_d_recovery_circuit(cycles: int = 1, include_resets: bool = True) -> Circuit:
    """``cycles`` chained Figure-7 recovery cycles on nine wires.

    The codeword enters and leaves on :data:`ONE_D_DATA_POSITIONS`, so
    no rotation bookkeeping is needed.
    """
    if cycles < 0:
        raise CodingError(f"cycle count must be >= 0, got {cycles}")
    circuit = Circuit(9, name="EL-1D")
    for _ in range(cycles):
        append_one_d_recovery(circuit, include_resets)
    return circuit


def one_d_lattice() -> Chain:
    """The nine-site line the 1D recovery must be local on."""
    return Chain(9)


# ----------------------------------------------------------------------
# 2D
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class TileOrientation:
    """Where the codeword lies on the 3×3 tile: a full row or column."""

    axis: str  # "row" or "col"
    index: int

    def __post_init__(self) -> None:
        if self.axis not in ("row", "col"):
            raise LocalityError(f"axis must be 'row' or 'col', got {self.axis!r}")
        if not 0 <= self.index < 3:
            raise LocalityError(f"line index must be in 0..2, got {self.index}")

    def data_cells(self) -> tuple[tuple[int, int], ...]:
        """Grid cells of the codeword, in line order."""
        if self.axis == "col":
            return tuple((row, self.index) for row in range(3))
        return tuple((self.index, col) for col in range(3))


#: Figure 4 starts with the codeword q0,q1,q2 on the middle column.
STANDARD_TILE_ORIENTATION = TileOrientation(axis="col", index=1)


class TileRecovery:
    """Chains local recovery cycles on a 3×3 grid (wires = row*3+col).

    Each cycle: reset the two lines parallel to the data line, encode
    along the perpendicular lines (data cell first), decode along the
    other axis with outputs on line 0.  The orientation flips axis
    every cycle; :attr:`orientation` and :meth:`data_wires` track it.
    """

    def __init__(self, orientation: TileOrientation = STANDARD_TILE_ORIENTATION):
        self.grid = Grid(rows=3, cols=3)
        self.orientation = orientation

    def data_wires(self) -> tuple[int, int, int]:
        """Wires currently holding the codeword."""
        return tuple(
            self.grid.wire(*cell) for cell in self.orientation.data_cells()
        )

    def append_cycle(self, circuit: Circuit, include_resets: bool = True) -> None:
        """Append one recovery cycle and advance the orientation."""
        if circuit.n_wires != 9:
            raise CodingError(
                f"the tile recovery acts on 9 wires, circuit has "
                f"{circuit.n_wires}"
            )
        axis, index = self.orientation.axis, self.orientation.index
        others = [i for i in range(3) if i != index]

        def line_wires(line_axis: str, line_index: int) -> tuple[int, int, int]:
            if line_axis == "col":
                return tuple(self.grid.wire(row, line_index) for row in range(3))
            return tuple(self.grid.wire(line_index, col) for col in range(3))

        if include_resets:
            for other in others:
                circuit.append_reset(*line_wires(axis, other))

        # Encode: perpendicular line through each data cell, data first.
        for cell in self.orientation.data_cells():
            row, col = cell
            if axis == "col":
                triple = [self.grid.wire(row, c) for c in (index, *others)]
            else:
                triple = [self.grid.wire(r, col) for r in (index, *others)]
            circuit.maj_inv(*triple)

        # Decode along the data axis; outputs land on line 0 of the
        # perpendicular axis.
        perpendicular = "row" if axis == "col" else "col"
        for line_index in range(3):
            if perpendicular == "row":
                # Data was a column: decode triples are columns; the
                # first operand (row 0) receives each block majority.
                triple = [self.grid.wire(r, line_index) for r in (0, 1, 2)]
            else:
                # Data was a row: decode triples are rows; outputs on
                # column 0.
                triple = [self.grid.wire(line_index, c) for c in (0, 1, 2)]
            circuit.maj(*triple)

        self.orientation = TileOrientation(axis=perpendicular, index=0)


def two_d_recovery_circuit(
    cycles: int = 1, include_resets: bool = True
) -> tuple[Circuit, TileRecovery]:
    """``cycles`` chained tile recovery cycles on a 3×3 grid.

    Returns the circuit and the :class:`TileRecovery` tracker (whose
    :meth:`~TileRecovery.data_wires` give the final codeword wires).
    """
    if cycles < 0:
        raise CodingError(f"cycle count must be >= 0, got {cycles}")
    circuit = Circuit(9, name="EL-2D")
    tracker = TileRecovery()
    for _ in range(cycles):
        tracker.append_cycle(circuit, include_resets)
    return circuit, tracker


def two_d_lattice() -> Grid:
    """The 3×3 grid the tile recovery must be local on."""
    return Grid(3, 3)

