"""Exhaustive (truth-table) evaluation of gates and circuits.

For circuits small enough to enumerate (the guard is 2**20 states), the
whole action can be extracted as a table of images, the form of
:attr:`~repro.core.gate.Gate.table` (a circuit's rows are
``circuit_gate(circuit, name).truth_table_rows()``).  That is how the
test-suite and benches prove statements like "Figure 1's
CNOT·CNOT·Toffoli construction *is* the MAJ gate" by exhaustion rather
than by sampling.
"""

from __future__ import annotations

from repro.core.bits import bits_to_index, index_to_bits
from repro.core.circuit import Circuit
from repro.core.gate import Gate
from repro.core.simulator import run
from repro.errors import SimulationError

#: Largest wire count we will exhaustively enumerate (2**20 states).
MAX_EXHAUSTIVE_WIRES = 20


def circuit_permutation(circuit: Circuit) -> tuple[int, ...]:
    """The circuit's action on all ``2**n_wires`` states.

    Entry ``i`` is the image of input pattern ``i`` (wire 0 most
    significant), as in :attr:`~repro.core.gate.Gate.table`.

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
    return tuple(mapping)


def circuit_gate(circuit: Circuit, name: str) -> Gate:
    """Package a reset-free circuit's full action as a single gate."""
    return Gate(name, circuit.n_wires, circuit_permutation(circuit))


def format_truth_table(gate: Gate) -> str:
    """Render a gate's Table-1-style truth table as fixed-width text."""
    rows = gate.truth_table_rows()
    width = max(len("Output"), len(rows[0][0]))
    lines = [f"{'Input':<{width}}  {'Output':<{width}}"]
    lines.append("-" * (2 * width + 2))
    for input_bits, output_bits in rows:
        lines.append(f"{input_bits:<{width}}  {output_bits:<{width}}")
    return "\n".join(lines)
