"""Fused scheduling: slot invariants and execution equivalence."""

from __future__ import annotations

import numpy as np
import pytest

from repro.coding.concatenation import recovery_circuit
from repro.coding.logical import LogicalProcessor
from repro.core import library
from repro.core.bitplane import BitplaneState
from repro.core.circuit import Circuit
from repro.core.compiled import CompiledCircuit
from repro.core.library import REGISTRY
from repro.core.simulator import run

GATES = tuple(REGISTRY.values())


def random_circuit(rng: np.random.Generator, n_wires: int, n_ops: int) -> Circuit:
    circuit = Circuit(n_wires)
    usable = [gate for gate in GATES if gate.arity <= n_wires]
    for _ in range(n_ops):
        if rng.random() < 0.2:
            count = int(rng.integers(1, min(3, n_wires) + 1))
            wires = rng.choice(n_wires, size=count, replace=False)
            circuit.append_reset(
                *(int(w) for w in wires), value=int(rng.integers(0, 2))
            )
        else:
            gate = usable[int(rng.integers(len(usable)))]
            wires = rng.choice(n_wires, size=gate.arity, replace=False)
            circuit.append_gate(gate, *(int(w) for w in wires))
    return circuit


def transversal_circuit() -> Circuit:
    processor = LogicalProcessor(3, include_resets=True)
    processor.apply(library.MAJ, 0, 1, 2)
    processor.apply(library.MAJ_INV, 0, 1, 2)
    return processor.circuit


class TestSlotInvariants:
    def test_slots_preserve_schedule_order(self):
        compiled = CompiledCircuit(transversal_circuit())
        flattened = tuple(op for slot in compiled.slots for op in slot.ops)
        assert flattened == compiled.schedule

    def test_slot_ops_are_wire_disjoint_and_same_class(self):
        compiled = CompiledCircuit(transversal_circuit())
        for slot in compiled.slots:
            seen: set[int] = set()
            for op in slot.ops:
                assert op.is_reset == slot.is_reset
                assert seen.isdisjoint(op.wires)
                seen.update(op.wires)

    def test_group_rows_map_back_to_ops(self):
        compiled = CompiledCircuit(transversal_circuit())
        for slot in compiled.slots:
            for index, op in enumerate(slot.ops):
                group = slot.groups[slot.op_group[index]]
                row = group.wire_matrix[slot.op_row[index]]
                assert tuple(row) == op.wires

    def test_transversal_layers_fuse(self):
        # Transversal gates and per-codeword recovery steps act on
        # disjoint wire sets, so fusion stacks them: every gate slot
        # carries three ops, every ancilla-reset slot two, shrinking the
        # 54-op schedule to 20 slots.
        compiled = CompiledCircuit(transversal_circuit())
        assert len(compiled.schedule) == 54
        assert len(compiled.slots) == 20
        for slot in compiled.slots:
            assert len(slot.ops) == (2 if slot.is_reset else 3)

    def test_overlapping_ops_do_not_fuse(self):
        circuit = Circuit(3).cnot(0, 1).cnot(1, 2).cnot(0, 2)
        compiled = CompiledCircuit(circuit)
        assert [len(slot.ops) for slot in compiled.slots] == [1, 1, 1]

    def test_gate_reset_boundary_splits_slots(self):
        circuit = Circuit(4).cnot(0, 1).append_reset(2).append_reset(3).cnot(0, 1)
        compiled = CompiledCircuit(circuit)
        assert [
            (slot.is_reset, len(slot.ops)) for slot in compiled.slots
        ] == [(False, 1), (True, 2), (False, 1)]


class TestExecutionEquivalence:
    @pytest.mark.parametrize("trials", [1, 63, 64, 200])
    def test_fused_equals_unfused_noiseless(self, trials):
        rng = np.random.default_rng(90)
        for case in range(20):
            circuit = random_circuit(rng, 9, n_ops=30)
            rows = rng.integers(0, 2, size=(trials, 9))
            fused_state = BitplaneState.from_rows(rows)
            unfused_state = BitplaneState.from_rows(rows)
            CompiledCircuit(circuit, fuse=True).run(fused_state)
            CompiledCircuit(circuit, fuse=False).run(unfused_state)
            np.testing.assert_array_equal(fused_state.array, unfused_state.array)

    def test_fused_recovery_matches_reference(self):
        circuit = recovery_circuit()
        for logical in (0, 1):
            word = (logical,) * 3 + (0,) * 6
            expected = run(circuit, word)
            state = BitplaneState.broadcast(word, 100)
            CompiledCircuit(circuit, fuse=True).run(state)
            np.testing.assert_array_equal(
                state.array, np.tile(np.asarray(expected, dtype=np.uint8), (100, 1))
            )

    @pytest.mark.parametrize("trials", [1, 63, 64, 200])
    def test_packed_majority_and_count(self, trials):
        rng = np.random.default_rng(11)
        rows = rng.integers(0, 2, size=(trials, 5))
        state = BitplaneState.from_rows(rows)
        plane = state.majority_plane((0, 2, 4))
        expected = (rows[:, (0, 2, 4)].sum(axis=1) >= 2).sum()
        assert state.count_ones(plane) == expected

    def test_count_ones_without_bitwise_count(self, monkeypatch):
        # NumPy < 2.0 has no bitwise_count ufunc; the unpack fallback
        # must agree with it.
        state = BitplaneState.from_rows([[1], [0], [1], [1]])
        plane = state.planes[0]
        assert state.count_ones(plane) == 3
        # On NumPy 1.x the attribute is already absent and the first
        # assertion exercised the fallback directly.
        monkeypatch.delattr(np, "bitwise_count", raising=False)
        assert state.count_ones(plane) == 3

    def test_stacked_apply_matches_sequential(self):
        # One fused slot of three MAJ gates on disjoint triples must act
        # like the three sequential applications.
        circuit = Circuit(9)
        for offset in (0, 3, 6):
            circuit.maj(offset, offset + 1, offset + 2)
        rng = np.random.default_rng(4)
        rows = rng.integers(0, 2, size=(150, 9))
        fused_state = BitplaneState.from_rows(rows)
        compiled = CompiledCircuit(circuit, fuse=True)
        assert len(compiled.slots) == 1
        compiled.run(fused_state)
        reference = np.array([run(circuit, tuple(row)) for row in rows], dtype=np.uint8)
        np.testing.assert_array_equal(fused_state.array, reference)
