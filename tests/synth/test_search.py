"""The meet-in-the-middle searcher: minimality, pruning soundness."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import library
from repro.core.circuit import Circuit
from repro.core.truth_table import circuit_gate, circuit_permutation
from repro.errors import SynthesisError
from repro.synth.search import (
    enumerate_canonical,
    find_optimal,
    placed_library,
)


class TestPlacedLibrary:
    def test_symmetric_placements_deduplicate(self):
        # SWAP(0,1) and SWAP(1,0) are one action; on 2 wires the SWAP
        # library is a single op.
        ops = placed_library((library.SWAP,), 2)
        assert len(ops) == 1
        assert ops[0].wires == (0, 1)

    def test_identity_actions_dropped(self):
        ops = placed_library((library.IDENTITY1, library.X), 2)
        assert {op.gate.name for op in ops} == {"X"}

    def test_inverse_indices(self):
        ops = placed_library((library.SWAP3_UP, library.SWAP3_DOWN), 3)
        assert len(ops) == 2
        assert ops[0].inverse_index == 1
        assert ops[1].inverse_index == 0

    def test_empty_library_rejected(self):
        with pytest.raises(SynthesisError, match="at least one gate"):
            placed_library((), 2)

    def test_too_narrow_library_rejected(self):
        with pytest.raises(SynthesisError, match="fits"):
            placed_library((library.TOFFOLI,), 2)


class TestPaperConstructions:
    def test_rediscovers_figure_1_maj(self):
        result = find_optimal(
            library.MAJ, (library.CNOT, library.TOFFOLI), max_gates=4
        )
        assert result.gate_count == 3
        assert result.circuit.count_ops() == {"CNOT": 2, "TOFFOLI": 1}
        assert circuit_gate(result.circuit, "check").same_action(library.MAJ)
        # The canonical minimum IS the paper's construction, op for op.
        assert [(op.label, op.wires) for op in result.circuit] == [
            ("CNOT", (0, 1)),
            ("CNOT", (0, 2)),
            ("TOFFOLI", (1, 2, 0)),
        ]

    def test_rediscovers_figure_5_swap3(self):
        for rotation in (library.SWAP3_UP, library.SWAP3_DOWN):
            result = find_optimal(rotation, (library.SWAP,), max_gates=4)
            assert result.gate_count == 2
            assert result.circuit.count_ops() == {"SWAP": 2}
            assert circuit_gate(result.circuit, "check").same_action(rotation)

    def test_swap_from_cnots_is_three(self):
        result = find_optimal(library.SWAP, (library.CNOT,), max_gates=4)
        assert result.gate_count == 3


class TestMinimality:
    def test_identity_needs_zero_gates(self):
        result = find_optimal(
            Circuit(2).cnot(0, 1).cnot(0, 1), (library.CNOT,), max_gates=3
        )
        assert result.gate_count == 0
        assert result.states_explored == 0

    def test_single_gate_target(self):
        result = find_optimal(library.CNOT, (library.CNOT,), max_gates=3)
        assert result.gate_count == 1

    def test_unreachable_target_raises(self):
        # CNOTs are linear over GF(2); Toffoli is not.
        with pytest.raises(SynthesisError, match="no circuit of <= 3 gates"):
            find_optimal(library.TOFFOLI, (library.CNOT,), max_gates=3)

    def test_negative_max_gates_rejected(self):
        with pytest.raises(SynthesisError, match="max_gates"):
            find_optimal(library.X, (library.X,), max_gates=-1)

    def test_pruned_search_matches_unpruned_bfs_depths(self):
        """Differential: canonical-order pruning loses no minimal depth."""
        gates = (library.X, library.CNOT, library.SWAP, library.TOFFOLI)
        ops = placed_library(gates, 3)
        rng = np.random.default_rng(20260726)
        for _ in range(12):
            sequence = rng.integers(0, len(ops), size=rng.integers(1, 5))
            circuit = Circuit(3)
            for index in sequence:
                circuit.append_gate(ops[index].gate, *ops[index].wires)
            target_mapping = circuit_permutation(circuit)
            # Unpruned reference BFS over actions.
            frontier = {tuple(range(8))}
            reference_depth = 0
            while target_mapping not in frontier:
                frontier = {
                    tuple(op.mapping[image] for image in mapping)
                    for mapping in frontier
                    for op in ops
                }
                reference_depth += 1
            result = find_optimal(circuit, gates, max_gates=5)
            assert result.gate_count == reference_depth
            assert circuit_permutation(result.circuit) == target_mapping


class TestTargets:
    def test_circuit_target_names_the_result(self):
        fig1 = Circuit(3, name="fig1").cnot(0, 1).cnot(0, 2).toffoli(1, 2, 0)
        result = find_optimal(fig1, (library.MAJ,), max_gates=2)
        assert [op.label for op in result.circuit] == ["MAJ"]
        assert result.circuit.name == "synth:fig1"

    def test_permutation_target(self):
        # An unnamed target's result carries the bare ``synth`` name.
        result = find_optimal(Circuit(2).cnot(0, 1), (library.CNOT,))
        assert result.gate_count == 1
        assert result.circuit.name == "synth"

    def test_wire_bound(self):
        with pytest.raises(SynthesisError, match="1..6 wires"):
            find_optimal(library.identity(7), (library.X,))

    def test_non_permutation_target_rejected(self):
        with pytest.raises(SynthesisError, match="Gate or Circuit"):
            find_optimal((1, 0), (library.X,))

    def test_equal_length_candidates_break_ties_by_op_order(self):
        # X(0) and X(1) commute: of the two 2-gate orders, the
        # canonical search returns the library-order one.
        result = find_optimal(Circuit(2).x(1).x(0), (library.X,), max_gates=3)
        assert [op.wires for op in result.circuit] == [(0,), (1,)]


class TestEnumerateCanonical:
    def test_inverse_pairs_pruned(self):
        ops = placed_library((library.SWAP,), 2)
        sequences = [seq for seq, _ in enumerate_canonical(ops, 2)]
        # SWAP is self-inverse: the doubled sequence is pruned.
        assert sequences == [(0,)]

    def test_commuting_order_pruned(self):
        ops = placed_library((library.X,), 2)  # X(0)=op0, X(1)=op1, disjoint
        sequences = [seq for seq, _ in enumerate_canonical(ops, 2)]
        assert (1, 0) not in sequences
        assert (0, 1) in sequences

    def test_actions_are_exact(self):
        ops = placed_library((library.CNOT, library.X), 2)
        for sequence, mapping in enumerate_canonical(ops, 3):
            circuit = Circuit(2)
            for index in sequence:
                circuit.append_gate(ops[index].gate, *ops[index].wires)
            assert circuit_permutation(circuit) == mapping
