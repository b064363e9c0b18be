"""Near-neighbour lattices and locality checking (Section 3).

Many nano-scale proposals only allow operations on neighbouring bits.
We model a lattice as a map from circuit wires to positions plus an
adjacency relation; an operation is *local* when the positions of its
wires form a connected set under adjacency (and a gate never touches
more than three bits, per the paper's model).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from repro.core.circuit import Circuit
from repro.errors import LocalityError

Position = tuple[int, ...]

#: The paper's operations act on at most three neighbouring bits.
MAX_LOCAL_OPERATION_SIZE = 3


@dataclass(frozen=True)
class Chain:
    """A 1D line of ``length`` sites; wire ``i`` sits at position ``i``."""

    length: int

    def __post_init__(self) -> None:
        if self.length < 1:
            raise LocalityError(f"chain length must be >= 1, got {self.length}")

    @property
    def n_sites(self) -> int:
        """Number of lattice sites."""
        return self.length

    def position(self, wire: int) -> Position:
        """Position of a wire (the wire index itself)."""
        self._check(wire)
        return (wire,)

    def adjacent(self, a: Position, b: Position) -> bool:
        """True for nearest neighbours on the line."""
        return abs(a[0] - b[0]) == 1

    def _check(self, wire: int) -> None:
        if not 0 <= wire < self.length:
            raise LocalityError(f"wire {wire} outside chain of length {self.length}")


@dataclass(frozen=True)
class Grid:
    """A 2D grid; wire ``r * cols + c`` sits at ``(r, c)``."""

    rows: int
    cols: int

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise LocalityError(
                f"grid dimensions must be >= 1, got {self.rows}x{self.cols}"
            )

    @property
    def n_sites(self) -> int:
        """Number of lattice sites."""
        return self.rows * self.cols

    def wire(self, row: int, col: int) -> int:
        """Wire index of the site at ``(row, col)``."""
        if not (0 <= row < self.rows and 0 <= col < self.cols):
            raise LocalityError(
                f"site ({row}, {col}) outside {self.rows}x{self.cols} grid"
            )
        return row * self.cols + col

    def position(self, wire: int) -> Position:
        """``(row, col)`` of a wire."""
        if not 0 <= wire < self.n_sites:
            raise LocalityError(
                f"wire {wire} outside {self.rows}x{self.cols} grid"
            )
        return divmod(wire, self.cols)

    def adjacent(self, a: Position, b: Position) -> bool:
        """True for sites at Manhattan distance one."""
        return abs(a[0] - b[0]) + abs(a[1] - b[1]) == 1


Lattice = Chain | Grid


def is_connected_set(lattice: Lattice, positions: Sequence[Position]) -> bool:
    """True when the positions induce a connected adjacency subgraph."""
    if not positions:
        return True
    remaining = list(positions)
    frontier = [remaining.pop()]
    while frontier:
        current = frontier.pop()
        linked = [p for p in remaining if lattice.adjacent(current, p)]
        for p in linked:
            remaining.remove(p)
        frontier.extend(linked)
    return not remaining


def is_local_operation(lattice: Lattice, wires: Iterable[int]) -> bool:
    """True when an operation on ``wires`` is allowed on the lattice."""
    wire_list = list(wires)
    if len(wire_list) > MAX_LOCAL_OPERATION_SIZE:
        return False
    positions = [lattice.position(w) for w in wire_list]
    return is_connected_set(lattice, positions)


def validate_circuit_locality(circuit: Circuit, lattice: Lattice) -> None:
    """Raise :class:`LocalityError` at the first non-local operation."""
    for index, op in enumerate(circuit):
        if not is_local_operation(lattice, op.wires):
            positions = [lattice.position(w) for w in op.wires]
            raise LocalityError(
                f"operation {index} ({op.label}) on wires {op.wires} at "
                f"positions {positions} is not local on {lattice}"
            )


def circuit_is_local(circuit: Circuit, lattice: Lattice) -> bool:
    """Boolean form of :func:`validate_circuit_locality`."""
    try:
        validate_circuit_locality(circuit, lattice)
    except LocalityError:
        return False
    return True
