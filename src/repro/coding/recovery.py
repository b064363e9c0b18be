"""The majority-multiplexing error-recovery circuit (Figure 2).

The circuit acts on nine wires: a 3-bit repetition codeword on the
*data* wires plus six freshly initialised *ancilla* wires.  It has two
phases:

* **encode** — three ``MAJ⁻¹`` gates fan each data bit out onto two
  zeroed ancillas (``MAJ⁻¹(b, 0, 0) = (b, b, b)``), arranged so each
  subsequent decode block holds one copy of every data bit;
* **decode** — three ``MAJ`` gates compute block majorities into the
  three *output* wires, which form the recovered codeword.

With the standard wire numbering (data ``0,1,2``, ancillas ``3..8``)
the encode triples are ``(0,3,6) (1,4,7) (2,5,8)``, the decode triples
are ``(0,1,2) (3,4,5) (6,7,8)``, and the outputs are ``0,3,6`` — the
recovered codeword lands on different wires than it entered, a uniform
rotation of the logical bit line the paper notes can be ignored
(footnote 3).  :class:`RecoveryLayout` tracks that rotation so recovery
cycles can be chained indefinitely.

This module holds the circuit's values: its wire roles, the rotation
and the operation counts.  The circuit itself is emitted by
:func:`~repro.coding.concatenation.compile_recovery`, the one Figure-2
emitter, whose level-1 case is this figure exactly;
:func:`~repro.coding.concatenation.recovery_circuit` and
:func:`~repro.coding.concatenation.repeated_recovery` build it on the
standard nine wires.

Fault-tolerance, proved exhaustively in the test-suite:

* clean input, no faults → output equals input codeword;
* any single-bit input error, no faults → the error is corrected;
* clean input, any single internal fault (any operation replaced by an
  arbitrary pattern) → at most one bit of the output codeword is wrong.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import CodingError

#: Standard Figure-2 wire roles.
DATA_WIRES: tuple[int, int, int] = (0, 1, 2)
ANCILLA_WIRES: tuple[int, ...] = (3, 4, 5, 6, 7, 8)
OUTPUT_WIRES: tuple[int, int, int] = (0, 3, 6)

#: Operation counts quoted in Section 2.2: E = 8 with initialisation
#: (two 3-bit resets + three MAJ⁻¹ + three MAJ) and E = 6 without.
RECOVERY_OPS_WITH_INIT = 8
RECOVERY_OPS_WITHOUT_INIT = 6


@dataclass(frozen=True)
class RecoveryLayout:
    """Wire roles for one codeword-plus-ancillas cell of nine wires.

    ``data`` holds the codeword; ``ancillas`` the six scratch wires.
    :meth:`advance` returns the roles after one recovery cycle.
    """

    data: tuple[int, int, int]
    ancillas: tuple[int, int, int, int, int, int]

    def __post_init__(self) -> None:
        if len(self.data) != 3 or len(self.ancillas) != 6:
            raise CodingError(
                f"layout needs 3 data and 6 ancilla wires, got "
                f"{len(self.data)} and {len(self.ancillas)}"
            )
        wires = self.data + self.ancillas
        if len(set(wires)) != 9:
            raise CodingError(f"layout wires must be 9 distinct wires: {wires}")

    @staticmethod
    def standard() -> "RecoveryLayout":
        """The Figure-2 layout."""
        return RecoveryLayout(data=DATA_WIRES, ancillas=ANCILLA_WIRES)

    @property
    def wires(self) -> tuple[int, ...]:
        """All nine wires of the cell, data first."""
        return self.data + self.ancillas

    def encode_triples(self) -> tuple[tuple[int, int, int], ...]:
        """MAJ⁻¹ operand triples: (data bit, one ancilla per group)."""
        d0, d1, d2 = self.data
        a0, a1, a2, a3, a4, a5 = self.ancillas
        return ((d0, a0, a3), (d1, a1, a4), (d2, a2, a5))

    def decode_triples(self) -> tuple[tuple[int, int, int], ...]:
        """MAJ operand triples: one copy of every data bit per block."""
        d0, d1, d2 = self.data
        a0, a1, a2, a3, a4, a5 = self.ancillas
        return ((d0, d1, d2), (a0, a1, a2), (a3, a4, a5))

    def reset_groups(self) -> tuple[tuple[int, int, int], ...]:
        """The two 3-bit initialisation groups."""
        a0, a1, a2, a3, a4, a5 = self.ancillas
        return ((a0, a1, a2), (a3, a4, a5))

    def advance(self) -> "RecoveryLayout":
        """Roles after one recovery cycle (the footnote-3 rotation)."""
        d0, d1, d2 = self.data
        a0, a1, a2, a3, a4, a5 = self.ancillas
        return RecoveryLayout(data=(d0, a0, a3), ancillas=(d1, d2, a1, a2, a4, a5))


def recovery_op_count(include_resets: bool = True) -> int:
    """E, the number of operations in one recovery cycle (Section 2.2)."""
    return RECOVERY_OPS_WITH_INIT if include_resets else RECOVERY_OPS_WITHOUT_INIT


def operations_per_encoded_gate(include_resets: bool = True) -> int:
    """G = 3 + E, operations touching a codeword per logical gate cycle."""
    return 3 + recovery_op_count(include_resets)
