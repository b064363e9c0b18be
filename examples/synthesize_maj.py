"""Synthesis walkthrough: rediscover Figure 1, mine identities, optimise.

Run with::

    PYTHONPATH=src python examples/synthesize_maj.py

Three acts:

1. `find_optimal` rediscovers the paper's constructions from scratch —
   MAJ out of the CNOT/Toffoli basis (Figure 1) and the SWAP3 rotation
   out of plain SWAPs (Figure 5) — at provably minimal gate count;
2. the searcher mines an identity database over the recovery-circuit
   gate set (equivalence classes of circuits with the same exhaustive
   action);
3. `optimize` strips a deliberately redundant recovery circuit back to
   the hand-written Figure-2 original, counting fault locations as it
   goes — every rewrite verified by exhaustion before it is applied.
"""

from __future__ import annotations

from repro.coding.concatenation import recovery_circuit
from repro.core.draw import draw
from repro.core.library import CNOT, MAJ, MAJ_INV, SWAP, SWAP3_UP, TOFFOLI
from repro.core.truth_table import circuit_gate
from repro.synth.database import IdentityDatabase
from repro.synth.peephole import inflate, optimize_report
from repro.synth.search import find_optimal


def main() -> None:
    print("=== Figure 1, rediscovered: MAJ over {CNOT, TOFFOLI} ===")
    result = find_optimal(MAJ, (CNOT, TOFFOLI), max_gates=3)
    print(draw(result.circuit))
    print(
        f"gates: {result.gate_count} (provably minimal), "
        f"states explored: {result.states_explored}, "
        f"matches MAJ: {circuit_gate(result.circuit, 'synth').same_action(MAJ)}"
    )
    print()

    print("=== Figure 5, rediscovered: SWAP3 over {SWAP} ===")
    rotation = find_optimal(SWAP3_UP, (SWAP,), max_gates=3)
    print(draw(rotation.circuit))
    print(f"gates: {rotation.gate_count} (provably minimal)")
    print()

    print("=== Identity mining over the recovery gate set ===")
    database = IdentityDatabase(3)
    added = database.mine((CNOT, TOFFOLI, MAJ, MAJ_INV), max_gates=2)
    rewrite_classes = sum(
        1 for members in database.classes.values() if len(members) > 1
    )
    print(
        f"mined {added} circuits into {len(database)} equivalence classes; "
        f"{rewrite_classes} classes hold more than one circuit (rewrite rules)"
    )
    print()

    print("=== Peephole optimisation of a redundant recovery circuit ===")
    original = recovery_circuit()
    redundant = inflate(original)
    report = optimize_report(redundant, database=database)
    before, after = report.locations_before, report.locations_after
    print(
        f"fault locations: {before['total']} -> {after['total']} "
        f"({report.locations_removed_fraction:.0%} removed; "
        f"{before['gates']}->{after['gates']} gate-class, "
        f"{before['resets']}->{after['resets']} reset-class)"
    )
    print(
        f"rewrites: {report.cancellations} cancellations + "
        f"{report.identity_removals} identity removals + "
        f"{report.database_rewrites} database splices, "
        f"all {report.verified_rewrites} verified by exhaustion"
    )
    print(
        "optimised circuit equals the hand-written Figure 2 op for op: "
        f"{report.circuit.ops == original.ops}"
    )


if __name__ == "__main__":
    main()
