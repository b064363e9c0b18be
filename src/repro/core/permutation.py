"""Permutations on finite index sets.

A :class:`Permutation` is the mathematical backbone of a reversible
gate: a reversible gate on ``k`` wires *is* a permutation of the
``2**k`` input patterns.  This module keeps permutations abstract
(indices, not bits); the bit-level views live in
:mod:`repro.core.gate` and :mod:`repro.core.truth_table`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import GateDefinitionError


@dataclass(frozen=True)
class Permutation:
    """An immutable permutation of ``range(size)``.

    ``mapping[i]`` is the image of ``i``.  Construction validates that
    the mapping is a bijection.
    """

    mapping: tuple[int, ...]

    def __post_init__(self) -> None:
        size = len(self.mapping)
        seen = [False] * size
        for image in self.mapping:
            if not isinstance(image, int) or not 0 <= image < size:
                raise GateDefinitionError(
                    f"permutation entry {image!r} outside range({size})"
                )
            if seen[image]:
                raise GateDefinitionError(
                    f"permutation repeats image {image}; not a bijection"
                )
            seen[image] = True

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @staticmethod
    def identity(size: int) -> "Permutation":
        """The identity permutation on ``range(size)``."""
        return Permutation(tuple(range(size)))

    # ------------------------------------------------------------------
    # Group operations
    # ------------------------------------------------------------------

    @property
    def size(self) -> int:
        """Number of elements the permutation acts on."""
        return len(self.mapping)

    def apply(self, index: int) -> int:
        """Image of a single index."""
        return self.mapping[index]

    def __call__(self, index: int) -> int:
        return self.mapping[index]

    def compose(self, first: "Permutation") -> "Permutation":
        """The permutation *self after first* (apply ``first``, then ``self``)."""
        if first.size != self.size:
            raise GateDefinitionError(
                f"size mismatch composing permutations: {first.size} vs {self.size}"
            )
        return Permutation(tuple(self.mapping[first.mapping[i]] for i in range(self.size)))

    def inverse(self) -> "Permutation":
        """The inverse permutation."""
        inverse = [0] * self.size
        for index, image in enumerate(self.mapping):
            inverse[image] = index
        return Permutation(tuple(inverse))

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------

    def is_identity(self) -> bool:
        """True when every element is a fixed point."""
        return all(image == index for index, image in enumerate(self.mapping))

    def inversions(self) -> int:
        """Number of out-of-order pairs; the minimal adjacent-swap count.

        Sorting the sequence ``mapping`` with adjacent transpositions
        takes exactly this many swaps, which is why the routing tests
        use it to prove the layer's swap schedules optimal.
        """
        count = 0
        for i in range(self.size):
            for j in range(i + 1, self.size):
                if self.mapping[i] > self.mapping[j]:
                    count += 1
        return count
