"""Quickstart: the reversible MAJ gate and the Figure-2 recovery circuit.

Run with::

    python examples/quickstart.py

Reproduces Table 1, builds Figure 1 from CNOTs and a Toffoli, and shows
the nine-bit error-recovery circuit correcting a corrupted codeword —
first cleanly, then with a deliberately injected fault.
"""

from __future__ import annotations

from repro.core.circuit import Circuit
from repro.core.draw import draw
from repro.core.library import MAJ
from repro.core.simulator import run
from repro.core.truth_table import circuit_gate, format_truth_table
from repro.coding.concatenation import recovery_circuit
from repro.coding.recovery import OUTPUT_WIRES
from repro.noise.injector import Fault, run_with_faults


def main() -> None:
    print("=== Table 1: the reversible MAJ gate ===")
    print(format_truth_table(MAJ))
    print()

    print("=== Figure 1: MAJ from two CNOTs and a Toffoli ===")
    construction = Circuit(3, name="fig1").cnot(0, 1).cnot(0, 2).toffoli(1, 2, 0)
    print(draw(construction))
    built = circuit_gate(construction, "fig1-composite")
    print(f"construction equals MAJ: {built.same_action(MAJ)}")
    print()

    print("=== Figure 2: error recovery on the 3-bit repetition code ===")
    circuit = recovery_circuit()
    print(draw(circuit))
    print()

    corrupted = (1, 0, 1)  # logical 1 with the middle bit flipped
    output = run(circuit, corrupted + (0,) * 6)
    recovered = tuple(output[w] for w in OUTPUT_WIRES)
    print(f"input codeword  : {corrupted} (logical 1 with one error)")
    print(f"recovered       : {recovered}")
    print()

    print("=== Fault tolerance: corrupt an internal gate ===")
    # Replace the first decode MAJ's output with garbage (op index 5).
    fault = Fault(op_index=5, pattern=(0, 1, 0))
    output = run_with_faults(circuit, (1, 1, 1) + (0,) * 6, [fault])
    recovered = tuple(output[w] for w in OUTPUT_WIRES)
    errors = sum(1 for bit in recovered if bit != 1)
    print(f"clean input 111, faulty decode gate -> output {recovered}")
    print(f"output errors: {errors} (a single fault never causes more than 1)")


if __name__ == "__main__":
    main()
