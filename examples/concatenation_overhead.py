"""Concatenation overhead planning (Section 2.3).

Run with::

    python examples/concatenation_overhead.py

For a range of target module sizes ``T``, chooses the minimum
concatenation depth and reports the gate and bit blow-ups — including
the paper's worked example (g = rho/10, T = 10^6 -> level 2, 441 gates
per gate, 81 bits per bit) — then compiles actual circuits and checks
the census against the closed form.
"""

from __future__ import annotations

from repro.analysis.blowup import (
    gate_overhead_exponent,
    plan_module,
    unprotected_module_limit,
)
from repro.analysis.threshold import threshold
from repro.coding.concatenation import gamma_census
from repro.coding.logical import concatenated_gate_circuit
from repro.core.library import MAJ
from repro.harness.tables import format_table


def main() -> None:
    operation_count = 9
    rho = threshold(operation_count)
    gate_error = rho / 10.0

    print(f"scheme G = {operation_count}, rho = 1/108 = {rho:.5f}")
    print(f"gate error g = rho/10 = {gate_error:.2e}")
    print(
        f"unprotected limit at this g: ~{unprotected_module_limit(gate_error):.0f} gates\n"
    )

    rows = []
    for exponent in (3, 6, 9, 12):
        module_gates = 10**exponent
        report = plan_module(gate_error, operation_count, module_gates)
        rows.append(
            (
                f"10^{exponent}",
                report.level,
                report.gate_factor,
                report.bit_factor,
                f"{report.total_gates:.2e}",
            )
        )
    print(
        format_table(
            ("target T", "level L", "gates/gate", "bits/bit", "total gates"),
            rows,
            title="Minimum concatenation depth per module size",
        )
    )
    print(
        f"\ngate overhead is O((log T)^{gate_overhead_exponent(11):.2f}) "
        "for G = 11 — poly-log, as the paper says.\n"
    )

    print("Compiled-circuit census vs the closed form (E = 6 accounting):")
    for level in (1, 2):
        circuit, _ = concatenated_gate_circuit(MAJ, level)
        census = gamma_census(circuit)
        print(
            f"  level {level}: compiled {census['gates']} gates "
            f"(closed form {21 ** level}), {census['resets']} resets, "
            f"{circuit.n_wires // 3} wires per logical bit"
        )


if __name__ == "__main__":
    main()
