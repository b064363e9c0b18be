"""Entropy and heat budgets for noisy reversible computing (Section 4).

Run with::

    python examples/entropy_budget.py

Prints the paper's entropy sandwich ``g(3E)^{L-1} <= H_L <= G^L k sqrt(g)``
across error rates and concatenation depths, the depth limit for O(1)
entropy per gate, the Landauer heat equivalent, a Monte-Carlo
measurement of the entropy actually carried by discarded ancillas, and
the optimal 3/2-bit NAND realisation found by exhaustive search.
"""

from __future__ import annotations

from repro.analysis.entropy import (
    KAPPA,
    empirical_entropy_from_columns,
    entropy_lower_bound,
    entropy_upper_bound,
    landauer_heat_joules,
    max_level_for_constant_entropy,
    single_gate_entropy,
)
from repro.analysis.nand_cost import min_nand_cost, search_all_gates
from repro.coding.concatenation import recovery_circuit
from repro.coding.recovery import RecoveryLayout
from repro.core.library import MAJ_INV, TOFFOLI
from repro.harness.tables import format_table
from repro.noise.model import NoiseModel
from repro.noise.monte_carlo import NoisyRunner

RECOVERY_OPS = 11  # E with initialisation at G = 11 accounting
GATES_PER_LEVEL = 3 * RECOVERY_OPS


def main() -> None:
    print(f"kappa = 2 sqrt(7/8) + (7/8) log2 7 = {KAPPA:.4f}\n")

    rows = []
    for g in (1e-4, 1e-3, 1e-2):
        for level in (1, 2, 3):
            rows.append(
                (
                    f"{g:.0e}",
                    level,
                    f"{entropy_lower_bound(g, RECOVERY_OPS, level):.3g}",
                    f"{entropy_upper_bound(g, GATES_PER_LEVEL, level):.3g}",
                )
            )
    print(
        format_table(
            ("g", "level L", "lower bits/gate", "upper bits/gate"),
            rows,
            title="Entropy per level-L gate (Section 4 sandwich)",
        )
    )
    print()

    print("Depth limit for O(1) bits of entropy per gate:")
    for g in (1e-2, 1e-4, 1e-6):
        limit = max_level_for_constant_entropy(g, RECOVERY_OPS)
        print(f"  g = {g:.0e}: L <= {limit:.2f}")
    print("  (the paper's example: g = 1e-2, E = 11 -> L <= 2.3)\n")

    bits = entropy_upper_bound(1e-2, GATES_PER_LEVEL, 2)
    joules = landauer_heat_joules(bits, temperature_kelvin=300.0)
    print(
        f"Landauer heat for {bits:.1f} bits at 300 K: {joules:.3e} J per gate\n"
    )

    print("Monte-Carlo: entropy of the discarded recovery ancillas")
    g = 1e-2
    circuit = recovery_circuit()
    runner = NoisyRunner(NoiseModel(gate_error=g), seed=3)
    result = runner.run_from_input(circuit, (1, 1, 1) + (0,) * 6, trials=200000)
    discarded = [
        w for w in range(9) if w not in RecoveryLayout.standard().advance().data
    ]
    measured = empirical_entropy_from_columns(result.states.columns(discarded))
    print(f"  measured at g = {g}: {measured:.4f} bits per cycle")
    print(f"  bounds: [{g:.3g}, {8 * single_gate_entropy(g):.3g}]\n")

    print("NAND from reversible gates (footnote 4):")
    print(f"  MAJ^-1 cost : {min_nand_cost(MAJ_INV)} bits")
    print(f"  Toffoli cost: {min_nand_cost(TOFFOLI)} bits")
    result = search_all_gates()
    print(
        f"  exhaustive search over {result.total_gates_searched} gates: "
        f"minimum = {result.minimum_entropy} bits "
        f"({result.achieving_gates} gates achieve it)"
    )


if __name__ == "__main__":
    main()
