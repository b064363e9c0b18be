"""Fully assembled local logical cycles (Sections 3.1 and 3.2).

These functions materialise, as single circuits, the complete
"interleave → transversal gate → uninterleave → recover" cycles whose
per-codeword operation counts set the local thresholds:

* :func:`one_d_logical_cycle` — 27 wires (three nine-slot cells on a
  line): the Figure-6 interleave packed into SWAP3 gates, three
  transversal gate applications on the now-contiguous triples, the
  reversed interleave, and a Figure-7 recovery in each cell.  Local on
  ``Chain(27)`` by construction and checked in tests.
* :func:`two_d_logical_cycle` — 27 wires (three Figure-4 tiles stacked
  along the logical line): the 9-SWAP parallel interleave on the data
  column, transversal gates on vertical triples, uninterleave, and a
  tile recovery per tile.  Local on the stacked ``Grid(9, 3)``.

Both return the circuit *and* a census of operations touching each
codeword, which is how the reproduction recounts the paper's
``G = 40`` (1D) and ``G = 16`` (2D; recounted 17 — see DESIGN.md §4).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.circuit import Circuit
from repro.core.gate import Gate
from repro.local.interleave import interleave_1d_schedule, one_d_initial_line
from repro.local.layout import TileAssembly
from repro.local.local_recovery import (
    ONE_D_DATA_POSITIONS,
    TileOrientation,
    TileRecovery,
    append_one_d_recovery,
)
from repro.local.routing import (
    adjacent_swaps_to_sort,
    append_packed,
    apply_swap_schedule,
    pack_swaps,
)
from repro.errors import CodingError

#: Wires per codeword cell on the 1D line.
CELL = 9


@dataclass(frozen=True)
class CycleCensus:
    """Operation counts for one assembled logical cycle.

    ``ops_touching_codeword`` counts operations that touch each
    codeword's nine-wire *home cell*.  During interleaving bits stray
    into neighbouring cells, so this is an upper bound on the paper's
    per-codeword ``G`` (which the schedule-level analysis in
    :func:`repro.local.interleave.one_d_cycle_operation_count`
    reproduces exactly as 40/38).
    """

    total_ops: int
    ops_touching_codeword: tuple[int, int, int]

    @property
    def worst_codeword_ops(self) -> int:
        """Operations acting on the busiest codeword's home cell."""
        return max(self.ops_touching_codeword)


def _census(circuit: Circuit, cell_wires: list[set[int]]) -> CycleCensus:
    touching = [0, 0, 0]
    for op in circuit:
        wires = set(op.wires)
        for codeword in range(3):
            if wires & cell_wires[codeword]:
                touching[codeword] += 1
    return CycleCensus(
        total_ops=len(circuit),
        ops_touching_codeword=tuple(touching),  # type: ignore[arg-type]
    )


# ----------------------------------------------------------------------
# 1D
# ----------------------------------------------------------------------


def one_d_logical_cycle(
    gate: Gate, include_resets: bool = True
) -> tuple[Circuit, CycleCensus]:
    """One complete 1D logical cycle of ``gate`` on three codewords.

    The codewords enter and leave on the standard line layout (data at
    slots 0, 3, 6 of each nine-slot cell), so cycles chain.
    """
    if gate.arity != 3:
        raise CodingError(
            f"the 1D cycle applies a 3-bit logical gate, got arity {gate.arity}"
        )
    circuit = Circuit(3 * CELL, name=f"1D-cycle[{gate.name}]")

    swaps, _ = interleave_1d_schedule()
    append_packed(circuit, pack_swaps(swaps))

    # After interleaving, transversal triple i is contiguous; find it
    # by replaying the schedule on the token line.
    line = one_d_initial_line()
    apply_swap_schedule(line, swaps)
    for index in range(3):
        positions = [
            line.index(("data", codeword, index)) for codeword in range(3)
        ]
        circuit.append_gate(gate, *positions)

    append_packed(circuit, pack_swaps(swaps[::-1]))

    for cell in range(3):
        sub = Circuit(CELL)
        append_one_d_recovery(sub, include_resets)
        for op in sub:
            circuit.append(op.remapped({w: w + CELL * cell for w in range(CELL)}))

    cell_wires = [set(range(CELL * j, CELL * (j + 1))) for j in range(3)]
    return circuit, _census(circuit, cell_wires)


def one_d_cycle_io(logical_bits) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Physical input vector and data-wire list for the 1D cycle."""
    if len(logical_bits) != 3:
        raise CodingError(f"expected 3 logical bits, got {len(logical_bits)}")
    state = [0] * (3 * CELL)
    data_wires = []
    for codeword, bit in enumerate(logical_bits):
        if bit not in (0, 1):
            raise CodingError(f"logical bit must be 0 or 1, got {bit!r}")
        for position in ONE_D_DATA_POSITIONS:
            wire = CELL * codeword + position
            state[wire] = bit
            data_wires.append(wire)
    return tuple(state), tuple(data_wires)


# ----------------------------------------------------------------------
# 2D
# ----------------------------------------------------------------------


def two_d_logical_cycle(
    gate: Gate, include_resets: bool = True
) -> tuple[Circuit, CycleCensus, TileAssembly, list[TileRecovery]]:
    """One complete 2D logical cycle on three stacked Figure-4 tiles.

    Returns the circuit (in tile wire numbering: wire = 9·tile + label),
    the per-codeword census, the assembly (for positions/locality), and
    the per-tile recovery trackers whose ``data_wires()`` give where
    each codeword ends up.
    """
    if gate.arity != 3:
        raise CodingError(
            f"the 2D cycle applies a 3-bit logical gate, got arity {gate.arity}"
        )
    assembly = TileAssembly(3)
    circuit = Circuit(assembly.n_wires, name=f"2D-cycle[{gate.name}]")

    # The data column, top to bottom: rows 0..8 at the data column.
    column_wires = [assembly.wire_at(row, 1) for row in range(9)]
    # Token at row r belongs to codeword r // 3; its target row under
    # parallel interleaving is 3 * (r % 3) + r // 3 ... but the paper's
    # target is (bit i of every codeword adjacent): token (codeword j,
    # slot s) -> row 3s + j, where s is the slot order within the tile.
    keys = [3 * (row % 3) + (row // 3) for row in range(9)]
    swaps = adjacent_swaps_to_sort(keys)
    append_packed(circuit, pack_swaps(swaps), column_wires)

    # Transversal triples: after sorting, rows 3i..3i+2 hold slot i of
    # codewords 0, 1, 2 (in codeword order by construction of the key).
    line = list(range(9))
    apply_swap_schedule(line, swaps)  # line[row] = original row index
    for i in range(3):
        rows = range(3 * i, 3 * i + 3)
        ordered = sorted(rows, key=lambda row: line[row] // 3)
        circuit.append_gate(gate, *[column_wires[row] for row in ordered])

    append_packed(circuit, pack_swaps(swaps[::-1]), column_wires)

    trackers = []
    for tile in range(3):
        tracker = TileRecovery(TileOrientation("col", 1))
        sub = Circuit(9)
        tracker.append_cycle(sub, include_resets)
        # The tile recovery uses grid numbering (row*3 + col) within its
        # tile; translate to this assembly's tile wires.
        translate = {
            local: assembly.wire_at(3 * tile + local // 3, local % 3)
            for local in range(9)
        }
        for op in sub:
            circuit.append(op.remapped(translate))
        trackers.append(tracker)

    cell_wires = [set(range(9 * j, 9 * (j + 1))) for j in range(3)]
    return circuit, _census(circuit, cell_wires), assembly, trackers


def two_d_cycle_io(
    logical_bits, assembly: TileAssembly
) -> tuple[tuple[int, ...], list[tuple[int, ...]]]:
    """Physical input and per-codeword data wires for the 2D cycle."""
    if len(logical_bits) != 3:
        raise CodingError(f"expected 3 logical bits, got {len(logical_bits)}")
    state = [0] * assembly.n_wires
    data = []
    for tile, bit in enumerate(logical_bits):
        if bit not in (0, 1):
            raise CodingError(f"logical bit must be 0 or 1, got {bit!r}")
        wires = assembly.data_wires(tile)
        for wire in wires:
            state[wire] = bit
        data.append(wires)
    return tuple(state), data
