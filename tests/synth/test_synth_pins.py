"""Frozen outputs of the synthesis layer.

These pin what the ``synth-peephole`` experiment, the synthesis example
and the synthesis tests observe: the optimiser's counts and output
circuit on the inflated two-cycle recovery workload, the searcher's
Figure-1 and Figure-5 circuits with their explored-state counts, and the
size of the committed identity database.  A refactor of ``repro.synth``
must leave every one of them unchanged.
"""

from __future__ import annotations

from repro.core.library import CNOT, MAJ, SWAP, SWAP3_UP, TOFFOLI
from repro.harness.threshold_finder import cycle_processor
from repro.synth import IdentityDatabase, find_optimal, inflate, optimize_report
from repro.synth.database import DEFAULT_DATABASE_DIR

COMMITTED_DATABASE = DEFAULT_DATABASE_DIR / "synth_identities.json"

OPTIMISED_CYCLE_KEY = (
    "979820103189d79a5da9a769bd3fe24cb74199620b2618022a630b1a4b6ad88b"
)


def test_optimize_report_on_the_inflated_two_cycle_workload():
    canonical = cycle_processor(2).circuit
    canonical_ops = list(canonical)
    report = optimize_report(
        inflate(canonical), database=IdentityDatabase.load(COMMITTED_DATABASE)
    )
    # The processor is memoised and shared with the threshold search,
    # so neither inflating nor optimising may touch its circuit.
    assert list(canonical) == canonical_ops
    assert report.passes == 2
    assert report.identity_removals == 0
    assert report.cancellations == 276
    assert report.database_rewrites == 84
    assert report.verified_rewrites == 360
    assert report.locations_before == {"gates": 804, "resets": 24, "total": 828}
    assert report.locations_after == {"gates": 84, "resets": 24, "total": 108}
    assert report.circuit.content_key() == OPTIMISED_CYCLE_KEY


def test_find_optimal_rediscovers_figure_1():
    result = find_optimal(MAJ, (CNOT, TOFFOLI))
    assert [(op.label, op.wires) for op in result.circuit] == [
        ("CNOT", (0, 1)),
        ("CNOT", (0, 2)),
        ("TOFFOLI", (1, 2, 0)),
    ]
    assert result.states_explored == 79


def test_find_optimal_rediscovers_figure_5():
    result = find_optimal(SWAP3_UP, (SWAP,))
    assert [(op.label, op.wires) for op in result.circuit] == [
        ("SWAP", (0, 1)),
        ("SWAP", (0, 2)),
    ]
    assert result.states_explored == 6


def test_committed_database_size():
    database = IdentityDatabase.load(COMMITTED_DATABASE)
    assert len(database) == 192
    assert database.n_circuits == 225


def test_committed_database_decodes_each_gate_once():
    database = IdentityDatabase.load(COMMITTED_DATABASE)
    gates = [
        op.gate
        for members in database.classes.values()
        for circuit in members.values()
        for op in circuit.ops
        if op.is_gate
    ]
    assert len({id(gate) for gate in gates}) == len(set(gates)) < len(gates)
