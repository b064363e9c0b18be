"""Ablation: the fully assembled local logical cycles, counted.

Materialises the complete interleave → gate → uninterleave → recover
cycles as circuits and compares operation counts across geometries —
the concrete objects behind Section 3's G = 16 (2D) and G = 40 (1D).
"""

from __future__ import annotations

from repro.core import MAJ
from repro.harness.tables import format_table
from repro.local import (
    Chain,
    circuit_is_local,
    one_d_cycle_operation_count,
    one_d_logical_cycle,
    two_d_logical_cycle,
)


def test_ablation_assembled_cycles(published_table):
    circuit_1d, census_1d = one_d_logical_cycle(MAJ)
    circuit_2d, census_2d, assembly, _ = two_d_logical_cycle(MAJ)

    rows = [
        (
            "2D (3 stacked tiles)",
            census_2d.total_ops,
            census_2d.worst_codeword_ops,
            "16 (recounted 17)",
            circuit_is_local(circuit_2d, assembly),
        ),
        (
            "1D (27-site line)",
            census_1d.total_ops,
            census_1d.worst_codeword_ops,
            f"{one_d_cycle_operation_count(True)}",
            circuit_is_local(circuit_1d, Chain(27)),
        ),
    ]
    text = format_table(
        (
            "geometry",
            "total ops",
            "ops on busiest home cell",
            "paper per-codeword G",
            "local",
        ),
        rows,
        title="Assembled logical cycles (one MAJ on three codewords)",
    )
    published_table("ablation-assembled-cycles", text)

    # Locality costs: 1D needs over twice the operations of 2D.
    assert census_1d.total_ops > 2 * census_2d.total_ops
    # The home-cell census upper-bounds the schedule-level G.
    assert census_1d.worst_codeword_ops >= 40
    assert circuit_is_local(circuit_1d, Chain(27))
    assert circuit_is_local(circuit_2d, assembly)
