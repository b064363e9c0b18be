"""Exhaustive (truth-table) evaluation of gates and circuits.

For circuits small enough to enumerate (the guard is 2**20 states), the
whole action can be extracted as a :class:`~repro.core.permutation.Permutation`,
which is how the test-suite and benches prove statements like
"Figure 1's CNOT·CNOT·Toffoli construction *is* the MAJ gate" by
exhaustion rather than by sampling.
"""

from __future__ import annotations

from repro.core.bits import bits_to_index, bitstring, index_to_bits
from repro.core.circuit import Circuit
from repro.core.gate import Gate
from repro.core.permutation import Permutation
from repro.core.simulator import run
from repro.errors import SimulationError

#: Largest wire count we will exhaustively enumerate (2**20 states).
MAX_EXHAUSTIVE_WIRES = 20


def circuit_permutation(circuit: Circuit) -> Permutation:
    """The circuit's action on all ``2**n_wires`` states.

    Raises :class:`SimulationError` for circuits with resets (their
    action is not a permutation) or with too many wires to enumerate.
    """
    if circuit.has_resets:
        raise SimulationError(
            "circuit contains resets; its action is not a permutation"
        )
    if circuit.n_wires > MAX_EXHAUSTIVE_WIRES:
        raise SimulationError(
            f"refusing to enumerate 2**{circuit.n_wires} states "
            f"(limit is 2**{MAX_EXHAUSTIVE_WIRES})"
        )
    width = circuit.n_wires
    mapping = []
    for index in range(1 << width):
        output = run(circuit, index_to_bits(index, width))
        mapping.append(bits_to_index(output))
    return Permutation(tuple(mapping))


def circuit_gate(circuit: Circuit, name: str) -> Gate:
    """Package a reset-free circuit's full action as a single gate."""
    return Gate.from_permutation(name, circuit_permutation(circuit))


def truth_table_rows(source: Gate | Circuit) -> list[tuple[str, str]]:
    """``(input, output)`` bit-string rows for a gate or circuit."""
    if isinstance(source, Gate):
        return source.truth_table_rows()
    permutation = circuit_permutation(source)
    width = source.n_wires
    return [
        (
            bitstring(index_to_bits(index, width)),
            bitstring(index_to_bits(permutation.mapping[index], width)),
        )
        for index in range(1 << width)
    ]


def format_truth_table(source: Gate | Circuit) -> str:
    """Render a Table-1-style truth table as fixed-width text."""
    rows = truth_table_rows(source)
    width = max(len("Output"), len(rows[0][0]))
    lines = [f"{'Input':<{width}}  {'Output':<{width}}"]
    lines.append("-" * (2 * width + 2))
    for input_bits, output_bits in rows:
        lines.append(f"{input_bits:<{width}}  {output_bits:<{width}}")
    return "\n".join(lines)
