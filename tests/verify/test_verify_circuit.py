"""Circuit well-formedness verification and the parity classifier.

Corruptions are forged with ``object.__new__``/``object.__setattr__``
to bypass the construction-time validation — exactly the artifacts
(tampered payloads, mutated ``_ops`` lists) the verifier exists for.
"""

from __future__ import annotations

import pytest

from repro.core import library
from repro.core.circuit import Circuit, OpKind, Operation
from repro.core.gate import Gate
from repro.verify.corpus import corpus
from repro.verify.ir import classify_parity, verify_circuit


def forge_gate(name: str, arity, table) -> Gate:
    gate = object.__new__(Gate)
    object.__setattr__(gate, "name", name)
    object.__setattr__(gate, "arity", arity)
    object.__setattr__(gate, "table", tuple(table))
    return gate


def forge_op(kind: OpKind, wires, gate=None, reset_value=None) -> Operation:
    op = object.__new__(Operation)
    object.__setattr__(op, "kind", kind)
    object.__setattr__(op, "wires", tuple(wires))
    object.__setattr__(op, "gate", gate)
    object.__setattr__(op, "reset_value", reset_value)
    return op


def forged_circuit(n_wires: int, *ops: Operation) -> Circuit:
    circuit = Circuit(n_wires)
    circuit._ops.extend(ops)
    return circuit


class TestCleanCorpus:
    @pytest.mark.parametrize(
        "label", [label for label, _ in corpus()]
    )
    def test_corpus_circuit_is_well_formed(self, label):
        circuit = dict(corpus())[label]
        report = verify_circuit(circuit)
        assert report.ok, report.render()

    def test_notes_inventory_parity_classes(self):
        circuit = Circuit(3).cnot(0, 1).swap(1, 2)
        report = verify_circuit(circuit)
        notes = [d for d in report.diagnostics if d.code == "RV020"]
        assert len(notes) == 2  # one per distinct gate


class TestCorruptions:
    def test_non_bijective_table(self):
        gate = forge_gate("BAD", 2, (0, 0, 2, 3))
        circuit = forged_circuit(2, forge_op(OpKind.GATE, (0, 1), gate=gate))
        report = verify_circuit(circuit)
        assert report.has("RV001")

    def test_wrong_table_size(self):
        gate = forge_gate("SHORT", 2, (0, 1, 2))
        circuit = forged_circuit(2, forge_op(OpKind.GATE, (0, 1), gate=gate))
        assert verify_circuit(circuit).has("RV002")

    def test_invalid_arity(self):
        gate = forge_gate("NOARITY", 0, ())
        circuit = forged_circuit(1, forge_op(OpKind.GATE, (), gate=gate))
        report = verify_circuit(circuit)
        assert report.has("RV003")

    def test_wire_out_of_range(self):
        op = forge_op(OpKind.GATE, (0, 7), gate=library.CNOT)
        assert verify_circuit(forged_circuit(2, op)).has("RV010")

    def test_duplicate_wires(self):
        op = forge_op(OpKind.GATE, (1, 1), gate=library.CNOT)
        assert verify_circuit(forged_circuit(2, op)).has("RV011")

    def test_arity_wire_mismatch(self):
        op = forge_op(OpKind.GATE, (0, 1, 2), gate=library.CNOT)
        assert verify_circuit(forged_circuit(3, op)).has("RV012")

    def test_reset_with_bad_value(self):
        op = forge_op(OpKind.RESET, (0,), reset_value=2)
        assert verify_circuit(forged_circuit(1, op)).has("RV013")

    def test_gate_op_without_gate(self):
        op = forge_op(OpKind.GATE, (0,))
        assert verify_circuit(forged_circuit(1, op)).has("RV013")


class TestParityClassifier:
    @pytest.mark.parametrize(
        "gate",
        [library.SWAP, library.FREDKIN, library.SWAP3_UP, library.SWAP3_DOWN],
        ids=lambda g: g.name,
    )
    def test_weight_conserving_gates(self, gate):
        assert classify_parity(gate) == "conserving"

    @pytest.mark.parametrize(
        "gate",
        [library.MAJ, library.MAJ_INV, library.CNOT, library.X],
        ids=lambda g: g.name,
    )
    def test_parity_mixing_gates(self, gate):
        assert classify_parity(gate) == "mixing"

    def test_identity_conserves(self):
        assert classify_parity(library.IDENTITY1) == "conserving"

    def test_preserving_class_exists(self):
        # The double-NOT on two wires flips both bits: weight changes
        # (00 -> 11) but the XOR of all bits is kept — the middle class.
        gate = Gate(name="XX", arity=2, table=(3, 2, 1, 0))
        assert classify_parity(gate) == "preserving"
