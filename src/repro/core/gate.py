"""The reversible gate abstraction.

A :class:`Gate` is a named permutation of the ``2**arity`` bit patterns
on its wires.  Gates are immutable values: two gates with the same
action compare equal through :meth:`Gate.same_action` regardless of
their names, while ``==`` also requires matching names (so a circuit
census can distinguish ``SWAP3`` from an anonymous 3-bit permutation
with the same action).
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

from repro.core.bits import Bits, bits_to_index, bitstring, index_to_bits
from repro.errors import GateDefinitionError


def invert_table(table: Sequence[int]) -> tuple[int, ...]:
    """The inverse of a bijective table: ``invert_table(t)[t[i]] == i``."""
    inverse = [0] * len(table)
    for index, image in enumerate(table):
        inverse[image] = index
    return tuple(inverse)


@dataclass(frozen=True)
class Gate:
    """A reversible gate: a named permutation on ``arity`` wires.

    ``table[i]`` gives the output pattern (packed, wire 0 most
    significant) produced by input pattern ``i``.
    """

    name: str
    arity: int
    table: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.arity < 1:
            raise GateDefinitionError(f"gate arity must be >= 1, got {self.arity}")
        expected = 1 << self.arity
        if len(self.table) != expected:
            raise GateDefinitionError(
                f"gate {self.name!r}: table has {len(self.table)} entries, "
                f"expected {expected}"
            )
        # The library's one bijectivity check.
        if not all(isinstance(image, int) for image in self.table) or (
            set(self.table) != set(range(expected))
        ):
            raise GateDefinitionError(
                f"gate {self.name!r}: table is not a permutation of "
                f"range({expected})"
            )

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @staticmethod
    def from_function(
        name: str, arity: int, function: Callable[[Bits], Sequence[int]]
    ) -> "Gate":
        """Build a gate from a bit-vector -> bit-vector function.

        The function must be a bijection on bit vectors of the given
        width; violations raise :class:`GateDefinitionError`.
        """
        table = []
        for index in range(1 << arity):
            output = tuple(function(index_to_bits(index, arity)))
            if len(output) != arity:
                raise GateDefinitionError(
                    f"gate {name!r}: function returned {len(output)} bits "
                    f"for arity {arity}"
                )
            table.append(bits_to_index(output))
        return Gate(name=name, arity=arity, table=tuple(table))

    # ------------------------------------------------------------------
    # Action
    # ------------------------------------------------------------------

    def apply(self, bits: Sequence[int]) -> Bits:
        """Apply the gate to a bit vector of length ``arity``."""
        if len(bits) != self.arity:
            raise GateDefinitionError(
                f"gate {self.name!r} expects {self.arity} bits, got {len(bits)}"
            )
        return index_to_bits(self.table[bits_to_index(bits)], self.arity)

    # ------------------------------------------------------------------
    # Derived gates
    # ------------------------------------------------------------------

    def inverse(self, name: str | None = None) -> "Gate":
        """The inverse gate.

        Self-inverse gates keep their name (inverting a SWAP is a
        SWAP); otherwise the default name appends ``⁻¹`` or strips an
        existing one.
        """
        if name is None:
            if self.is_self_inverse():
                return self
            if self.name.endswith("⁻¹"):
                name = self.name[: -len("⁻¹")]
            else:
                name = self.name + "⁻¹"
        return Gate(name=name, arity=self.arity, table=invert_table(self.table))

    def renamed(self, name: str) -> "Gate":
        """The same action under a different name."""
        return Gate(name=name, arity=self.arity, table=self.table)

    # ------------------------------------------------------------------
    # Properties and comparisons
    # ------------------------------------------------------------------

    def is_self_inverse(self) -> bool:
        """True when applying the gate twice is the identity."""
        return all(self.table[self.table[i]] == i for i in range(len(self.table)))

    def is_identity(self) -> bool:
        """True when the gate does nothing."""
        return all(image == index for index, image in enumerate(self.table))

    def same_action(self, other: "Gate") -> bool:
        """Name-insensitive equality of gate behaviour."""
        return self.arity == other.arity and self.table == other.table

    def truth_table_rows(self) -> list[tuple[str, str]]:
        """``(input, output)`` bit-string pairs in input order.

        This regenerates Table 1 of the paper when called on ``MAJ``.
        """
        rows = []
        for index, image in enumerate(self.table):
            rows.append(
                (
                    bitstring(index_to_bits(index, self.arity)),
                    bitstring(index_to_bits(image, self.arity)),
                )
            )
        return rows

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Gate({self.name!r}, arity={self.arity})"
