"""Tests for exhaustive circuit evaluation."""

from __future__ import annotations

import pytest

from repro.core import library
from repro.core.circuit import Circuit
from repro.core.gate import invert_table
from repro.core.truth_table import (
    circuit_gate,
    circuit_permutation,
    format_truth_table,
)
from repro.errors import SimulationError


class TestCircuitPermutation:
    def test_figure_1_construction_equals_maj(self):
        circuit = Circuit(3).cnot(0, 1).cnot(0, 2).toffoli(1, 2, 0)
        assert circuit_gate(circuit, "fig1").same_action(library.MAJ)

    def test_empty_circuit_is_identity(self):
        assert circuit_permutation(Circuit(2)) == (0, 1, 2, 3)

    def test_wire_order_respected(self):
        # CNOT with control on the later wire.
        circuit = Circuit(2).append_gate(library.CNOT, 1, 0)
        table = circuit_permutation(circuit)
        # Input (0,1): control wire 1 is set, so wire 0 flips -> (1,1).
        assert table[0b01] == 0b11

    def test_rejects_resets(self):
        with pytest.raises(SimulationError):
            circuit_permutation(Circuit(2).append_reset(0))

    def test_rejects_too_many_wires(self):
        with pytest.raises(SimulationError):
            circuit_permutation(Circuit(21))

    def test_inverse_circuit_gives_inverse_permutation(self):
        circuit = Circuit(3).maj(0, 1, 2).cnot(2, 0).append_gate(
            library.SWAP3_DOWN, 0, 1, 2
        )
        forward = circuit_permutation(circuit)
        backward = circuit_permutation(circuit.inverse())
        assert backward == invert_table(forward)


class TestRendering:
    def test_rows_for_gate_match_table_1(self):
        assert library.MAJ.truth_table_rows() == list(library.PAPER_TABLE_1)

    def test_rows_for_circuit(self):
        circuit = Circuit(1).x(0)
        rows = circuit_gate(circuit, "x").truth_table_rows()
        assert rows == [("0", "1"), ("1", "0")]

    def test_format_contains_all_rows(self):
        text = format_truth_table(library.MAJ)
        for input_bits, output_bits in library.PAPER_TABLE_1:
            assert input_bits in text
            assert output_bits in text
        assert text.splitlines()[0].startswith("Input")
