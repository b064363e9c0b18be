"""The n-bit repetition code (the paper uses n = 3 throughout).

Logical zero is ``00...0`` and logical one is ``11...1``; decoding is a
majority vote.  The code is symmetric under bit permutations, which is
what lets the paper's recovery circuit rotate the logical bit line
without consequence (footnote 3).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.bits import Bits, hamming_distance, majority, validate_bits
from repro.errors import CodingError


@dataclass(frozen=True)
class RepetitionCode:
    """The length-``n`` repetition code for odd ``n``."""

    length: int = 3

    def __post_init__(self) -> None:
        if self.length < 1 or self.length % 2 == 0:
            raise CodingError(
                f"repetition length must be odd and >= 1, got {self.length}"
            )

    # ------------------------------------------------------------------
    # Encoding / decoding
    # ------------------------------------------------------------------

    def encode(self, bit: int) -> Bits:
        """The codeword for a logical bit."""
        if bit not in (0, 1):
            raise CodingError(f"logical bit must be 0 or 1, got {bit!r}")
        return (bit,) * self.length

    def decode(self, word: Sequence[int]) -> int:
        """Majority-vote decoding of a (possibly corrupted) word."""
        self._check_length(word)
        return majority(tuple(word))

    def errors_in(self, word: Sequence[int], logical: int) -> int:
        """Number of positions differing from the codeword for ``logical``."""
        self._check_length(word)
        return hamming_distance(word, self.encode(logical))

    def corrupt(self, word: Sequence[int], positions: Sequence[int]) -> Bits:
        """The word with the listed positions flipped."""
        self._check_length(word)
        validate_bits(word)
        position_set = set(positions)
        for position in position_set:
            if not 0 <= position < self.length:
                raise CodingError(f"corrupt position {position} out of range")
        return tuple(
            bit ^ 1 if index in position_set else bit
            for index, bit in enumerate(word)
        )

    def _check_length(self, word: Sequence[int]) -> None:
        if len(word) != self.length:
            raise CodingError(
                f"word length {len(word)} != code length {self.length}"
            )


#: The paper's code.
THREE_BIT_CODE = RepetitionCode(3)

#: Logical codewords of the 3-bit code, for convenience.
LOGICAL_ZERO: Bits = THREE_BIT_CODE.encode(0)
LOGICAL_ONE: Bits = THREE_BIT_CODE.encode(1)


def mismatch_plane(
    majority_planes: Iterable[np.ndarray],
    expected: Sequence[int],
    n_logical: int,
) -> np.ndarray:
    """Packed plane of trials whose decoded word differs from ``expected``.

    ``majority_planes`` yields one packed majority plane per logical
    bit, lazily, so only one is alive at a time.  Each is XORed against
    its expected bit and ORed into the result, so no trial is ever
    unpacked.  Padding bits beyond a batch's trial count are
    unspecified.
    """
    if len(expected) != n_logical:
        raise CodingError(
            f"expected {n_logical} logical bits, got {len(expected)}"
        )
    failed = None
    for plane, bit in zip(majority_planes, expected):
        if bit:
            plane = ~plane
        failed = plane if failed is None else failed | plane
    return failed
