"""Near-neighbour fault tolerance: the 1D and 2D constructions.

Run with::

    python examples/locality_routing.py

Walks through Section 3: the Figure-4 tile on which recovery is
already local, the interleaving schedules and their swap counts, and
the fully 1D Figure-7 recovery circuit with its SWAP3-packed routing
network — ending with the operation counts that set each scheme's
threshold.
"""

from __future__ import annotations

from repro.analysis.threshold import threshold
from repro.core.circuit import Circuit
from repro.core.draw import draw
from repro.harness.tables import format_table
from repro.local.interleave import (
    interleave_1d_schedule,
    one_d_cycle_operation_count,
    parallel_2d_schedule,
    perpendicular_2d_schedule,
)
from repro.local.lattice import circuit_is_local
from repro.local.layout import FIG4_TILE
from repro.local.local_recovery import (
    one_d_lattice,
    one_d_recovery_circuit,
    one_d_routing_ops,
    two_d_lattice,
    two_d_recovery_circuit,
)


def main() -> None:
    print("=== Figure 4: the 3x3 tile ===")
    for row in FIG4_TILE:
        print("   " + "  ".join(f"q{label}" for label in row))
    circuit, tracker = two_d_recovery_circuit(cycles=2)
    print(f"\nrecovery over 2 cycles local on the tile: "
          f"{circuit_is_local(circuit, two_d_lattice())}")
    print(f"codeword after 2 cycles on wires: {tracker.data_wires()}")
    print()

    print("=== Interleaving costs (Figures 4 and 6) ===")
    _, parallel = parallel_2d_schedule()
    _, perpendicular = perpendicular_2d_schedule()
    _, one_d = interleave_1d_schedule()
    rows = [
        ("2D parallel", parallel.total_swaps, parallel.max_swaps_per_codeword,
         parallel.max_swap3_per_codeword),
        ("2D perpendicular", perpendicular.total_swaps,
         perpendicular.max_swaps_per_codeword, perpendicular.max_swap3_per_codeword),
        ("1D (Figure 6)", one_d.total_swaps, one_d.max_swaps_per_codeword,
         one_d.max_swap3_per_codeword),
    ]
    print(format_table(
        ("scheme", "total SWAPs", "max/codeword", "SWAP3/codeword"), rows
    ))
    print(f"\n1D move breakdown: b0 = {one_d.move_breakdown[0]} (8+7+6), "
          f"b2 = {one_d.move_breakdown[2]} (10+8+6)")
    print()

    print("=== Figure 7: the fully 1D recovery circuit ===")
    circuit = one_d_recovery_circuit(1)
    labels = ["q0", "q3", "q6", "q1", "q4", "q7", "q2", "q5", "q8"]
    print(draw(circuit, labels=labels))
    print(f"\nlocal on a 9-site line: {circuit_is_local(circuit, one_d_lattice())}")
    routing = one_d_routing_ops()
    print("routing network:", ", ".join(f"{op.kind}{op.wires}" for op in routing))
    print()

    print("=== Operation counts and thresholds ===")
    rows = [
        ("non-local", 11, f"1/{round(1 / threshold(11))}"),
        ("2D local (paper's count)", 16, f"1/{round(1 / threshold(16))}"),
        ("1D local", one_d_cycle_operation_count(True), f"1/{round(1 / threshold(40))}"),
    ]
    print(format_table(("scheme", "ops per codeword G", "threshold"), rows))


if __name__ == "__main__":
    main()
