"""SWAP routing on a line and SWAP→SWAP3 packing.

The 1D constructions of Section 3.2 move bits with adjacent SWAPs and
then halve the operation count by fusing pairs of SWAPs that act on a
contiguous bit triple into a single ``SWAP3`` gate (Figure 5).  This
module provides:

* :func:`adjacent_swaps_to_sort` — an insertion-sort swap schedule,
  optimal because its length equals the permutation's inversion count;
* :func:`move_token` — the "move this bit over there" primitive used
  by the paper's interleaving description;
* :func:`pack_swaps` — the greedy fusion of consecutive swaps into
  SWAP3 gates (two SWAPs on three contiguous wires);
* :func:`append_packed` — the one emitter of packed routing gates onto
  a circuit.
"""

from __future__ import annotations

from collections.abc import MutableSequence, Sequence
from dataclasses import dataclass

from repro.core import library
from repro.core.circuit import Circuit
from repro.errors import LocalityError

#: An adjacent transposition of line positions ``(i, i + 1)``.
AdjacentSwap = tuple[int, int]


def check_adjacent(swap: AdjacentSwap) -> None:
    """Raise unless the pair is an ordered adjacent transposition."""
    low, high = swap
    if high != low + 1 or low < 0:
        raise LocalityError(f"swap {swap} is not an adjacent pair (i, i+1)")


def apply_swap_schedule(
    line: MutableSequence, swaps: Sequence[AdjacentSwap]
) -> None:
    """Apply adjacent swaps to a token line, in place."""
    for swap in swaps:
        check_adjacent(swap)
        low, high = swap
        if high >= len(line):
            raise LocalityError(f"swap {swap} outside line of length {len(line)}")
        line[low], line[high] = line[high], line[low]


def adjacent_swaps_to_sort(sequence: Sequence) -> list[AdjacentSwap]:
    """Insertion-sort schedule bringing ``sequence`` into sorted order.

    The schedule length equals the inversion count of the sequence, the
    provable minimum for adjacent transpositions.
    """
    line = list(sequence)
    swaps: list[AdjacentSwap] = []
    for i in range(1, len(line)):
        j = i
        while j > 0 and line[j - 1] > line[j]:
            line[j - 1], line[j] = line[j], line[j - 1]
            swaps.append((j - 1, j))
            j -= 1
    return swaps


def move_token(
    line: MutableSequence, from_position: int, to_position: int
) -> list[AdjacentSwap]:
    """Slide one token along the line via adjacent swaps, in place.

    Every token between source and destination shifts one slot in the
    opposite direction — the physical behaviour of a bucket-brigade of
    SWAP gates.
    """
    size = len(line)
    if not (0 <= from_position < size and 0 <= to_position < size):
        raise LocalityError(
            f"move {from_position} -> {to_position} outside line of "
            f"length {size}"
        )
    swaps: list[AdjacentSwap] = []
    position = from_position
    step = 1 if to_position > from_position else -1
    while position != to_position:
        low = min(position, position + step)
        swaps.append((low, low + 1))
        line[position], line[position + step] = (
            line[position + step],
            line[position],
        )
        position += step
    return swaps


@dataclass(frozen=True)
class PackedOp:
    """A routing gate after SWAP3 fusion.

    ``kind`` is ``"SWAP"`` (one adjacent transposition, two wires) or
    ``"SWAP3_UP"`` / ``"SWAP3_DOWN"`` (two fused transpositions on a
    contiguous wire triple; UP rotates contents ``(a,b,c) -> (c,a,b)``,
    DOWN rotates ``(a,b,c) -> (b,c,a)``).
    """

    kind: str
    wires: tuple[int, ...]


def pack_swaps(swaps: Sequence[AdjacentSwap]) -> list[PackedOp]:
    """Greedily fuse consecutive swap pairs into SWAP3 gates.

    Two consecutive swaps fuse exactly when their four endpoints cover
    a contiguous triple ``(w, w+1, w+2)``; the fused gate is the
    rotation equal to applying the two swaps in order.  Applied to the
    nine-swap schedule of Figure 7 this yields the paper's census of
    four SWAP3 gates plus one SWAP.
    """
    packed: list[PackedOp] = []
    index = 0
    while index < len(swaps):
        first = swaps[index]
        check_adjacent(first)
        if index + 1 < len(swaps):
            second = swaps[index + 1]
            check_adjacent(second)
            if second[0] == first[0] - 1:
                # (i, i+1) then (i-1, i): contents rotate upward.
                base = first[0] - 1
                packed.append(
                    PackedOp(kind="SWAP3_UP", wires=(base, base + 1, base + 2))
                )
                index += 2
                continue
            if second[0] == first[0] + 1:
                # (i, i+1) then (i+1, i+2): contents rotate downward.
                base = first[0]
                packed.append(
                    PackedOp(kind="SWAP3_DOWN", wires=(base, base + 1, base + 2))
                )
                index += 2
                continue
        packed.append(PackedOp(kind="SWAP", wires=first))
        index += 1
    return packed


def append_packed(
    circuit: Circuit,
    packed: Sequence[PackedOp],
    wire_map: Sequence[int] | None = None,
) -> None:
    """Append packed routing gates to ``circuit``.

    An op's line positions are circuit wires, or, given ``wire_map``,
    index it: position ``p`` acts on wire ``wire_map[p]``.
    """
    for op in packed:
        wires = op.wires
        if wire_map is not None:
            wires = tuple(wire_map[p] for p in wires)
        circuit.append_gate(library.REGISTRY[op.kind], *wires)


def packed_census(packed: Sequence[PackedOp]) -> dict[str, int]:
    """Histogram of packed routing gates by kind."""
    census: dict[str, int] = {}
    for op in packed:
        census[op.kind] = census.get(op.kind, 0) + 1
    return census


def swaps_touching(
    swaps: Sequence[AdjacentSwap],
    initial_line: Sequence,
    tokens: set,
) -> int:
    """Count swaps that move at least one of the given tokens.

    Replays the schedule on a copy of the line, checking the tokens at
    each swap's endpoints before applying it.
    """
    line = list(initial_line)
    count = 0
    for swap in swaps:
        check_adjacent(swap)
        low, high = swap
        if line[low] in tokens or line[high] in tokens:
            count += 1
        line[low], line[high] = line[high], line[low]
    return count
