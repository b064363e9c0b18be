"""Bit-vector utilities shared by the whole library.

Conventions
-----------
A *bit vector* is a tuple (or list) of ``0``/``1`` integers.  When a bit
vector is packed into an integer index, **wire 0 is the most significant
bit**, so the string ``"100"`` reads ``q0 = 1, q1 = 0, q2 = 0`` and packs
to the index ``4``.  This matches the row ordering of Table 1 in the
paper, where the input ``100`` maps to the output ``011``.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

from repro.errors import GateDefinitionError

Bits = tuple[int, ...]


def validate_bits(bits: Sequence[int]) -> None:
    """Raise :class:`GateDefinitionError` unless every entry is 0 or 1."""
    for value in bits:
        if value not in (0, 1):
            raise GateDefinitionError(f"bit values must be 0 or 1, got {value!r}")


def bits_to_index(bits: Sequence[int]) -> int:
    """Pack a bit vector into an integer, wire 0 most significant.

    >>> bits_to_index((1, 0, 0))
    4
    """
    validate_bits(bits)
    index = 0
    for bit in bits:
        index = (index << 1) | bit
    return index


def index_to_bits(index: int, width: int) -> Bits:
    """Unpack an integer into a bit vector of ``width`` bits.

    >>> index_to_bits(4, 3)
    (1, 0, 0)
    """
    if index < 0 or index >= (1 << width):
        raise GateDefinitionError(
            f"index {index} out of range for width {width}"
        )
    return tuple((index >> (width - 1 - position)) & 1 for position in range(width))


def bitstring(bits: Sequence[int]) -> str:
    """Render a bit vector as a string, e.g. ``(1, 0, 0)`` -> ``"100"``."""
    validate_bits(bits)
    return "".join(str(bit) for bit in bits)


def parse_bits(text: str) -> Bits:
    """Parse a string of ``0``/``1`` characters into a bit vector."""
    try:
        bits = tuple(int(char) for char in text)
    except ValueError as exc:
        raise GateDefinitionError(f"cannot parse bit string {text!r}") from exc
    validate_bits(bits)
    return bits


def all_bit_vectors(width: int) -> Iterator[Bits]:
    """Yield every bit vector of the given width in lexicographic order."""
    for index in range(1 << width):
        yield index_to_bits(index, width)


def hamming_distance(left: Sequence[int], right: Sequence[int]) -> int:
    """Number of positions where two equal-length bit vectors differ."""
    if len(left) != len(right):
        raise GateDefinitionError(
            f"length mismatch: {len(left)} vs {len(right)}"
        )
    return sum(1 for a, b in zip(left, right) if a != b)


def majority(bits: Sequence[int]) -> int:
    """Majority value of an odd-length bit vector.

    >>> majority((1, 0, 1))
    1
    """
    if len(bits) % 2 == 0:
        raise GateDefinitionError("majority requires an odd number of bits")
    validate_bits(bits)
    return 1 if sum(bits) * 2 > len(bits) else 0

