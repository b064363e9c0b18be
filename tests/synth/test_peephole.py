"""The peephole optimiser: cancellation, rewrites, invariants."""

from __future__ import annotations

import numpy as np
import pytest

from repro.coding.concatenation import recovery_circuit
from repro.coding.logical import LogicalProcessor
from repro.core import library
from repro.core.bits import index_to_bits
from repro.core.circuit import Circuit
from repro.core.decompositions import DECOMPOSITIONS
from repro.core.simulator import run
from repro.core.truth_table import circuit_permutation
from repro.synth.database import IdentityDatabase
from repro.synth.peephole import inflate, optimize, optimize_report


def same_noiseless_action(left: Circuit, right: Circuit) -> bool:
    """Exhaustive equality of two (possibly reset-bearing) circuits."""
    assert left.n_wires == right.n_wires
    width = left.n_wires
    return all(
        run(left, index_to_bits(i, width)) == run(right, index_to_bits(i, width))
        for i in range(1 << width)
    )


def rewrite_database() -> IdentityDatabase:
    database = IdentityDatabase(3)
    database.mine(
        (library.CNOT, library.TOFFOLI, library.MAJ, library.MAJ_INV),
        max_gates=2,
    )
    return database


class TestCancellation:
    def test_adjacent_inverse_pair_cancels(self):
        circuit = Circuit(2).cnot(0, 1).cnot(0, 1)
        assert len(optimize(circuit)) == 0

    def test_cancellation_across_disjoint_ops(self):
        circuit = Circuit(3).x(2).cnot(0, 1).x(2)
        optimized = optimize(circuit)
        assert [op.label for op in optimized] == ["CNOT"]

    def test_overlapping_op_blocks_cancellation(self):
        # The Fredkin decomposition: the outer CNOTs are mutual
        # inverses but the Toffoli between them shares their wires.
        circuit = Circuit(3).cnot(2, 1).toffoli(0, 1, 2).cnot(2, 1)
        assert optimize(circuit).ops == circuit.ops

    def test_identity_gate_removed(self):
        circuit = Circuit(2).append_gate(library.IDENTITY1, 0).cnot(0, 1)
        assert [op.label for op in optimize(circuit)] == ["CNOT"]

    def test_non_self_inverse_pair_cancels(self):
        circuit = Circuit(3).maj(0, 1, 2).maj_inv(0, 1, 2)
        assert len(optimize(circuit)) == 0

    def test_same_gate_twice_does_not_cancel_unless_involution(self):
        circuit = Circuit(3).maj(0, 1, 2).maj(0, 1, 2)
        assert optimize(circuit).ops == circuit.ops

    def test_resets_are_never_touched(self):
        circuit = Circuit(3).append_reset(0, 1).x(2).append_reset(2)
        optimized = optimize(circuit)
        assert optimized.ops == circuit.ops


class TestDatabaseRewrites:
    def test_figure_1_window_rewrites_to_maj(self):
        database = rewrite_database()
        circuit = Circuit(3).cnot(0, 1).cnot(0, 2).toffoli(1, 2, 0)
        optimized = optimize(circuit, database=database)
        assert [op.label for op in optimized] == ["MAJ"]
        assert optimized.ops[0].wires == (0, 1, 2)

    def test_narrow_window_embeds_into_wider_database(self):
        # SWAP-from-CNOTs touches 2 wires; a 3-wire database still
        # rewrites it through the embedded action.
        database = IdentityDatabase(3)
        database.mine((library.CNOT, library.SWAP), max_gates=2)
        circuit = Circuit(3).cnot(0, 1).cnot(1, 0).cnot(0, 1).toffoli(0, 1, 2)
        optimized = optimize(circuit, database=database)
        assert [op.label for op in optimized] == ["SWAP", "TOFFOLI"]
        assert same_noiseless_action(circuit, optimized)

    def test_identity_window_deleted(self):
        database = rewrite_database()
        # CNOT(0,1)·CNOT(0,2)·CNOT(0,1)·CNOT(0,2) is the identity but
        # contains no adjacent inverse pair (the middle pair overlaps
        # on the control); only the window rewrite can remove it.
        circuit = Circuit(3).cnot(0, 1).cnot(0, 2).cnot(0, 1).cnot(0, 2)
        assert circuit_permutation(circuit) == tuple(range(8))
        assert len(optimize(circuit, database=database)) == 0

    def test_without_database_only_cancellation_runs(self):
        circuit = Circuit(3).cnot(0, 1).cnot(0, 2).toffoli(1, 2, 0)
        assert optimize(circuit).ops == circuit.ops


class TestPaperConstructionsAreFixedPoints:
    def test_figure_1_maj_construction_untouched(self):
        circuit = Circuit(3, name="fig1").cnot(0, 1).cnot(0, 2).toffoli(1, 2, 0)
        assert optimize(circuit).ops == circuit.ops

    def test_figure_5_swap3_construction_untouched(self):
        circuit = Circuit(3).swap(1, 2).swap(0, 1)
        assert optimize(circuit).ops == circuit.ops

    def test_every_decomposition_untouched(self):
        for key, (circuit, _, _) in DECOMPOSITIONS.items():
            assert optimize(circuit).ops == circuit.ops, key

    def test_recovery_circuit_untouched(self):
        circuit = recovery_circuit()
        assert optimize(circuit).ops == circuit.ops
        assert optimize(circuit, database=rewrite_database()).ops == circuit.ops


class TestInflate:
    def test_preserves_action_on_recovery_circuit(self):
        circuit = recovery_circuit()
        redundant = inflate(circuit)
        assert len(redundant) > len(circuit)
        assert same_noiseless_action(circuit, redundant)

    def test_round_trip_recovers_the_recovery_circuit_exactly(self):
        circuit = recovery_circuit()
        report = optimize_report(inflate(circuit), database=rewrite_database())
        assert report.circuit.ops == circuit.ops
        assert report.locations_removed_fraction > 0.2


class TestOptimizeInvariants:
    def random_circuits(self):
        gates = [
            library.X,
            library.CNOT,
            library.SWAP,
            library.TOFFOLI,
            library.MAJ,
            library.MAJ_INV,
        ]
        rng = np.random.default_rng(7)
        for _ in range(15):
            circuit = Circuit(4)
            for _ in range(rng.integers(0, 10)):
                gate = gates[rng.integers(0, len(gates))]
                wires = rng.permutation(4)[: gate.arity]
                circuit.append_gate(gate, *(int(w) for w in wires))
                if rng.integers(0, 4) == 0:
                    circuit.append_reset(int(rng.integers(0, 4)))
            yield circuit

    def test_optimize_preserves_action_and_is_idempotent(self):
        database = IdentityDatabase(3)
        database.mine(
            (library.CNOT, library.SWAP, library.MAJ, library.MAJ_INV),
            max_gates=2,
        )
        for circuit in self.random_circuits():
            optimized = optimize(circuit, database=database)
            assert same_noiseless_action(circuit, optimized)
            assert len(optimized) <= len(circuit)
            again = optimize(optimized, database=database)
            assert again.ops == optimized.ops

    def test_report_accounting(self):
        circuit = Circuit(3).x(2).cnot(0, 1).x(2).swap(0, 1).swap(0, 1)
        report = optimize_report(circuit)
        assert report.cancellations == 2
        assert report.database_rewrites == 0
        assert report.verified_rewrites == report.cancellations
        assert report.locations_before["total"] == 5
        assert report.locations_after["total"] == 1
        assert report.locations_removed_fraction == pytest.approx(0.8)

    def test_empty_circuit_report(self):
        report = optimize_report(Circuit(2))
        assert report.locations_removed_fraction == 0.0
        assert report.circuit.ops == ()


class TestCycleWorkload:
    def test_cycle_round_trip_matches_up_to_maj_symmetry(self):
        from repro.harness.experiments import _op_shape

        processor = LogicalProcessor(3)
        processor.apply(library.MAJ, 0, 1, 2)
        processor.apply(library.MAJ_INV, 0, 1, 2)
        canonical = processor.circuit
        redundant = inflate(canonical)
        report = optimize_report(redundant, database=rewrite_database())
        assert len(report.circuit) == len(canonical)
        assert [_op_shape(op) for op in report.circuit] == [
            _op_shape(op) for op in canonical
        ]
        assert report.locations_removed_fraction >= 0.2

    def test_op_shape_keeps_operand_roles(self):
        from repro.harness.experiments import _op_shape

        # The majority target (first operand) keeps its role...
        maj_a = Circuit(3).maj(0, 1, 2).ops[0]
        maj_b = Circuit(3).maj(0, 2, 1).ops[0]
        maj_c = Circuit(3).maj(1, 0, 2).ops[0]
        assert _op_shape(maj_a) == _op_shape(maj_b)
        assert _op_shape(maj_a) != _op_shape(maj_c)
        # ...and asymmetric gates compare by exact wires.
        cnot_a = Circuit(2).cnot(0, 1).ops[0]
        cnot_b = Circuit(2).cnot(1, 0).ops[0]
        assert _op_shape(cnot_a) != _op_shape(cnot_b)
