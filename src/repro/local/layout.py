"""The 2D tile layout of Figure 4.

One logical bit occupies a 3×3 tile whose cells hold the nine wires of
the recovery circuit.  Figure 4 draws the tile as::

    q8 q2 q5
    q7 q1 q4
    q6 q0 q3

so the codeword ``q0 q1 q2`` sits on the middle column and every
encode triple ``(q0,q3,q6) (q1,q4,q7) (q2,q5,q8)`` is a row while every
decode triple ``(q0,q1,q2) (q3,q4,q5) (q6,q7,q8)`` is a column — the
whole recovery circuit is nearest-neighbour local with no routing.

Tiles assemble into a logical register stacked along the logical line
(the "parallel" interleaving geometry), which exposes grid positions
for the locality checker.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.local.lattice import Grid
from repro.errors import LocalityError

#: Figure 4's tile, row by row: entry [r][c] is the wire label there.
FIG4_TILE: tuple[tuple[int, int, int], ...] = (
    (8, 2, 5),
    (7, 1, 4),
    (6, 0, 3),
)


def tile_position(wire: int) -> tuple[int, int]:
    """``(row, col)`` of a wire label inside the Figure-4 tile."""
    for row, entries in enumerate(FIG4_TILE):
        for col, label in enumerate(entries):
            if label == wire:
                return (row, col)
    raise LocalityError(f"wire label {wire} is not in the 3x3 tile")


def tile_wire(row: int, col: int) -> int:
    """Wire label at a tile cell."""
    if not (0 <= row < 3 and 0 <= col < 3):
        raise LocalityError(f"cell ({row}, {col}) outside the 3x3 tile")
    return FIG4_TILE[row][col]


#: Where the codeword q0,q1,q2 lives in the tile: the middle column.
DATA_COLUMN = 1


@dataclass(frozen=True)
class TileAssembly:
    """``n_tiles`` Figure-4 tiles glued into one grid.

    Tile ``t`` sits on grid rows ``3t..3t+2`` (logical bits in a
    vertical line — data bits of consecutive tiles are collinear, the
    *parallel* geometry).

    Circuit wires are numbered ``9 t + label`` for tile ``t`` and
    Figure-4 label ``label``.
    """

    n_tiles: int

    def __post_init__(self) -> None:
        if self.n_tiles < 1:
            raise LocalityError(f"need >= 1 tile, got {self.n_tiles}")

    @property
    def grid(self) -> Grid:
        """The assembled grid."""
        return Grid(rows=3 * self.n_tiles, cols=3)

    @property
    def n_wires(self) -> int:
        """Total circuit wires across all tiles."""
        return 9 * self.n_tiles

    def wire(self, tile: int, label: int) -> int:
        """Circuit wire of a tile-local Figure-4 label."""
        self._check_tile(tile)
        tile_position(label)  # validates the label
        return 9 * tile + label

    def position(self, wire: int) -> tuple[int, int]:
        """Grid position of a circuit wire."""
        if not 0 <= wire < self.n_wires:
            raise LocalityError(
                f"wire {wire} outside assembly of {self.n_tiles} tiles"
            )
        tile, label = divmod(wire, 9)
        row, col = tile_position(label)
        return (3 * tile + row, col)

    def adjacent(self, a: tuple[int, int], b: tuple[int, int]) -> bool:
        """Nearest-neighbour adjacency (so the assembly acts as a lattice).

        Delegating to the grid's Manhattan rule lets the locality
        checker consume a :class:`TileAssembly` directly, with wires in
        tile numbering.
        """
        return self.grid.adjacent(a, b)

    def wire_at(self, row: int, col: int) -> int:
        """Circuit wire at a grid position."""
        tile, tile_row = divmod(row, 3)
        self._check_tile(tile)
        return 9 * tile + tile_wire(tile_row, col)

    def data_wires(self, tile: int) -> tuple[int, int, int]:
        """Circuit wires of a tile's codeword (labels q0, q1, q2)."""
        self._check_tile(tile)
        return (self.wire(tile, 0), self.wire(tile, 1), self.wire(tile, 2))

    def _check_tile(self, tile: int) -> None:
        if not 0 <= tile < self.n_tiles:
            raise LocalityError(
                f"tile {tile} outside assembly of {self.n_tiles} tiles"
            )
