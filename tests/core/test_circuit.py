"""Unit tests for repro.core.circuit."""

from __future__ import annotations

import json

import pytest

from repro.core import library
from repro.core.circuit import (
    Circuit,
    Operation,
    OpKind,
    circuit_from_json,
    circuit_to_json,
)
from repro.core.gate import Gate
from repro.errors import CircuitError, GateDefinitionError, SerializationError


class TestOperation:
    def test_gate_operation(self):
        op = Operation(kind=OpKind.GATE, wires=(0, 1), gate=library.CNOT)
        assert op.is_gate and not op.is_reset
        assert op.label == "CNOT"

    def test_reset_operation(self):
        op = Operation(kind=OpKind.RESET, wires=(3, 4, 5))
        assert op.is_reset
        assert op.label == "RESET"

    def test_rejects_duplicate_wires(self):
        with pytest.raises(CircuitError):
            Operation(kind=OpKind.GATE, wires=(0, 0), gate=library.CNOT)

    def test_rejects_arity_mismatch(self):
        with pytest.raises(CircuitError):
            Operation(kind=OpKind.GATE, wires=(0,), gate=library.CNOT)

    def test_rejects_gate_on_reset(self):
        with pytest.raises(CircuitError):
            Operation(kind=OpKind.RESET, wires=(0,), gate=library.X)

    def test_rejects_bad_reset_value(self):
        with pytest.raises(CircuitError):
            Operation(kind=OpKind.RESET, wires=(0,), reset_value=2)

    def test_rejects_empty_wires(self):
        with pytest.raises(CircuitError):
            Operation(kind=OpKind.RESET, wires=())

    def test_rejects_gate_operation_without_gate(self):
        with pytest.raises(CircuitError, match="requires a gate"):
            Operation(kind=OpKind.GATE, wires=(0,))

    def test_remap(self):
        op = Operation(kind=OpKind.GATE, wires=(0, 1), gate=library.CNOT)
        assert op.remapped({0: 5, 1: 2}).wires == (5, 2)

    def test_remap_missing_wire(self):
        op = Operation(kind=OpKind.GATE, wires=(0, 1), gate=library.CNOT)
        with pytest.raises(CircuitError):
            op.remapped({0: 5})


class TestConstruction:
    def test_fluent_building(self):
        circuit = Circuit(3).cnot(0, 1).cnot(0, 2).toffoli(1, 2, 0)
        assert len(circuit) == 3
        assert [op.label for op in circuit] == ["CNOT", "CNOT", "TOFFOLI"]

    def test_wire_range_validated(self):
        with pytest.raises(CircuitError):
            Circuit(2).toffoli(0, 1, 2)

    def test_zero_wires_rejected(self):
        with pytest.raises(CircuitError):
            Circuit(0)

    def test_named_helpers(self):
        circuit = (
            Circuit(4)
            .x(0)
            .swap(0, 1)
            .append_gate(library.FREDKIN, 0, 1, 2)
            .append_gate(library.SWAP3_DOWN, 0, 1, 2)
            .append_gate(library.SWAP3_UP, 1, 2, 3)
            .maj(0, 1, 2)
            .maj_inv(1, 2, 3)
        )
        assert circuit.count_ops()["MAJ"] == 1
        assert circuit.count_ops()["MAJ⁻¹"] == 1

    def test_reset_helper(self):
        circuit = Circuit(3).append_reset(0, 1, 2, value=1)
        assert circuit.ops[0].reset_value == 1
        assert circuit.has_resets


class TestSequenceBehaviour:
    def test_indexing_and_slicing(self):
        circuit = Circuit(3).x(0).x(1).x(2)
        assert circuit[1].wires == (1,)
        sliced = circuit[1:]
        assert isinstance(sliced, Circuit)
        assert len(sliced) == 2

    def test_copy_is_independent(self):
        circuit = Circuit(2).x(0)
        clone = circuit.copy()
        clone.x(1)
        assert len(circuit) == 1
        assert len(clone) == 2


class TestAlgebra:
    def test_concatenation(self):
        left = Circuit(2).x(0)
        right = Circuit(2).x(1)
        assert [op.wires for op in left + right] == [(0,), (1,)]

    def test_concatenation_requires_same_width(self):
        with pytest.raises(CircuitError):
            Circuit(2) + Circuit(3)

    def test_inverse_reverses_and_inverts(self):
        circuit = Circuit(3).maj(0, 1, 2).cnot(0, 1)
        inverse = circuit.inverse()
        assert [op.label for op in inverse] == ["CNOT", "MAJ⁻¹"]

    def test_inverse_rejects_resets(self):
        with pytest.raises(CircuitError):
            Circuit(3).append_reset(0).inverse()


class TestCensus:
    def test_count_ops(self):
        circuit = Circuit(9)
        circuit.append_reset(3, 4, 5).append_reset(6, 7, 8)
        circuit.maj_inv(0, 3, 6).maj(0, 1, 2)
        counts = circuit.count_ops()
        assert counts["RESET"] == 2
        assert counts["MAJ⁻¹"] == 1
        assert counts["MAJ"] == 1

    def test_gate_count_excluding_resets(self):
        circuit = Circuit(3).append_reset(0).x(1)
        assert circuit.gate_count() == 2
        assert circuit.gate_count(include_resets=False) == 1

    def test_wires_touched(self):
        circuit = Circuit(5).cnot(0, 3)
        assert circuit.wires_touched() == frozenset({0, 3})

    def test_depth_parallel_ops(self):
        circuit = Circuit(4).x(0).x(1).cnot(0, 1).x(2)
        # x(0) and x(1) and x(2) parallel; cnot after the first two.
        assert circuit.depth() == 2

    def test_depth_serial_chain(self):
        circuit = Circuit(2).cnot(0, 1).cnot(0, 1).cnot(0, 1)
        assert circuit.depth() == 3


class TestWireForm:
    """``circuit_to_json``/``circuit_from_json``, the one circuit codec."""

    def test_round_trip_library_gates(self):
        circuit = (
            Circuit(3).cnot(0, 1).cnot(0, 2).toffoli(1, 2, 0)
            .append_reset(1, value=1)
        )
        rebuilt = circuit_from_json(circuit_to_json(circuit))
        assert rebuilt.ops == circuit.ops
        assert rebuilt.n_wires == circuit.n_wires

    @pytest.mark.parametrize("name", list(library.REGISTRY))
    def test_every_library_gate_round_trips(self, name):
        gate = library.REGISTRY[name]
        circuit = Circuit(gate.arity).append_gate(gate, *range(gate.arity))
        rebuilt = circuit_from_json(circuit_to_json(circuit))
        assert rebuilt.ops[0].gate == gate
        assert rebuilt.content_key() == circuit.content_key()

    def test_round_trip_custom_gate_inlines_table(self):
        rotated = Gate(name="ROT4", arity=2, table=(1, 2, 3, 0))
        circuit = Circuit(2).append_gate(rotated, 0, 1)
        record = circuit_to_json(circuit)
        assert record["gates"] == [
            {"name": "ROT4", "arity": 2, "table": [1, 2, 3, 0]}
        ]
        assert circuit_from_json(record).ops == circuit.ops

    def test_renamed_library_gate_keeps_its_action(self):
        # A gate that shadows a library name with a different action
        # comes back with its own table, not the library's.
        impostor = library.SWAP.renamed("CNOT")
        record = circuit_to_json(Circuit(2).append_gate(impostor, 0, 1))
        rebuilt = circuit_from_json(record)
        assert rebuilt.ops[0].gate.table == library.SWAP.table
        assert rebuilt.ops[0].gate.name == "CNOT"

    def test_name_round_trips(self):
        circuit = Circuit(2, name="pair").cnot(0, 1)
        assert circuit_from_json(circuit_to_json(circuit)).name == "pair"

    def test_missing_name_reads_as_empty(self):
        record = circuit_to_json(Circuit(2).cnot(0, 1))
        del record["name"]
        assert circuit_from_json(record).name == ""

    def test_round_trip_through_text(self):
        circuit = Circuit(4).maj(0, 1, 2).append_reset(3).append_gate(
            library.SWAP3_UP, 1, 2, 3
        )
        text = json.dumps(circuit_to_json(circuit))
        assert circuit_from_json(json.loads(text)).content_key() == (
            circuit.content_key()
        )

    def test_gates_pool_is_written_once_per_gate(self):
        circuit = Circuit(3).cnot(0, 1).cnot(1, 2).cnot(0, 2).x(0)
        record = circuit_to_json(circuit)
        assert [g["name"] for g in record["gates"]] == ["CNOT", "X"]
        assert [op["gate"] for op in record["ops"]] == [0, 0, 0, 1]

    def test_unknown_op_kind_rejected(self):
        record = circuit_to_json(Circuit(2).cnot(0, 1))
        record["ops"][0]["kind"] = "measure"
        with pytest.raises(SerializationError, match="unknown op kind"):
            circuit_from_json(record)

    @pytest.mark.parametrize("index", [-1, 1, True, "0"])
    def test_gate_index_outside_the_pool_rejected(self, index):
        record = circuit_to_json(Circuit(2).cnot(0, 1))
        record["ops"][0]["gate"] = index
        with pytest.raises(SerializationError, match="outside the pool"):
            circuit_from_json(record)

    def test_non_bijective_table_rejected(self):
        record = circuit_to_json(Circuit(2).cnot(0, 1))
        record["gates"][0]["table"] = [0, 1, 1, 3]
        with pytest.raises(GateDefinitionError):
            circuit_from_json(record)

    def test_records_sharing_a_gate_decode_to_one_gate(self):
        first = circuit_from_json(circuit_to_json(Circuit(2).cnot(0, 1)))
        second = circuit_from_json(circuit_to_json(Circuit(3).cnot(2, 0).x(1)))
        assert first.ops[0].gate is second.ops[0].gate

    @pytest.mark.parametrize(
        "field, value",
        [("table", [0.0, 1, 3, 2]), ("table", [False, 1, 3, 2]), ("arity", 2.0)],
    )
    def test_non_integer_gate_rejected_after_a_valid_decode(self, field, value):
        # ``0.0 == 0``: a tampered table must not hit the valid CNOT
        # that an earlier decode interned.
        record = circuit_to_json(Circuit(2).cnot(0, 1))
        circuit_from_json(record)
        record["gates"][0][field] = value
        with pytest.raises(SerializationError, match="integers"):
            circuit_from_json(record)

    def test_wire_out_of_range_rejected(self):
        record = circuit_to_json(Circuit(2).cnot(0, 1))
        record["ops"][0]["wires"] = [0, 2]
        with pytest.raises(CircuitError):
            circuit_from_json(record)

    def test_arity_mismatch_rejected(self):
        record = circuit_to_json(Circuit(3).cnot(0, 1))
        record["ops"][0]["wires"] = [0, 1, 2]
        with pytest.raises(CircuitError):
            circuit_from_json(record)

    def test_bad_reset_value_rejected(self):
        record = circuit_to_json(Circuit(2).append_reset(0))
        record["ops"][0]["value"] = 2
        with pytest.raises(CircuitError):
            circuit_from_json(record)
