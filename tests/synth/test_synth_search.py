"""The synthesis searcher rediscovers Figures 1 and 5 minimally.

`find_optimal` must return the paper's MAJ decomposition (2 CNOTs + a
Toffoli, Figure 1) and both SWAP3 rotations (2 SWAPs each, Figure 5)
at provably minimal gate count, and the identity miner must populate
the Figure-1 equivalence class the peephole optimiser rewrites with.
"""

from __future__ import annotations

from repro.core.library import CNOT, MAJ, SWAP, SWAP3_DOWN, SWAP3_UP, TOFFOLI
from repro.core.truth_table import circuit_gate
from repro.synth.database import IdentityDatabase
from repro.synth.search import find_optimal

#: Iterative-deepening cap, above the Figure-1 (3 gates) and Figure-5
#: (2 gates) minima: the search stops at the first depth that matches.
SEARCH_DEPTH = 4
#: Mining depth that reaches the three-gate Figure-1 member.
MINING_DEPTH = 3


def test_search_rediscovers_fig1_maj():
    result = find_optimal(MAJ, (CNOT, TOFFOLI), max_gates=SEARCH_DEPTH)
    assert result.gate_count == 3
    assert result.circuit.count_ops() == {"CNOT": 2, "TOFFOLI": 1}
    assert circuit_gate(result.circuit, "synth-maj").same_action(MAJ)
    assert [(op.label, op.wires) for op in result.circuit] == [
        ("CNOT", (0, 1)),
        ("CNOT", (0, 2)),
        ("TOFFOLI", (1, 2, 0)),
    ]


def test_search_rediscovers_fig5_swap3():
    results = [
        find_optimal(rotation, (SWAP,), max_gates=SEARCH_DEPTH)
        for rotation in (SWAP3_UP, SWAP3_DOWN)
    ]
    for rotation, result in zip((SWAP3_UP, SWAP3_DOWN), results):
        assert result.gate_count == 2
        assert result.circuit.count_ops() == {"SWAP": 2}
        assert circuit_gate(result.circuit, "synth-swap3").same_action(rotation)


def test_identity_mining_covers_the_figure_1_class():
    database = IdentityDatabase(3)
    database.mine((CNOT, TOFFOLI, MAJ), max_gates=MINING_DEPTH)
    best = database.best(MAJ.permutation)
    assert best is not None and len(best) == 1
    # The MAJ class holds both the single gate and the Figure-1
    # three-gate member — an equivalence usable as a rewrite rule.
    lengths = {len(member) for member in database.classes[MAJ.table].values()}
    assert 1 in lengths and 3 in lengths
