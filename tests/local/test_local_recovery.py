"""Exhaustive tests for the 1D (Figure 7) and 2D (Figure 4) recovery."""

from __future__ import annotations

import pytest

from repro.coding.repetition import THREE_BIT_CODE
from repro.core.simulator import run
from repro.core.circuit import Circuit
from repro.local.lattice import circuit_is_local
from repro.local.local_recovery import (
    ONE_D_DATA_POSITIONS,
    ONE_D_RECOVERY_OPS_WITH_INIT,
    ONE_D_RECOVERY_OPS_WITHOUT_INIT,
    STANDARD_TILE_ORIENTATION,
    TileOrientation,
    TileRecovery,
    one_d_lattice,
    one_d_recovery_circuit,
    one_d_routing_ops,
    two_d_lattice,
    two_d_recovery_circuit,
)
from repro.noise.injector import iter_single_faults, run_with_faults
from repro.errors import CodingError, LocalityError

from tests.conftest import all_corrupted_codewords, embed_codeword, embed_one_d


class TestOneDStructure:
    def test_locality_over_multiple_cycles(self):
        assert circuit_is_local(one_d_recovery_circuit(4), one_d_lattice())

    def test_census_matches_paper_gate_count(self):
        circuit = one_d_recovery_circuit(1)
        census = circuit.count_ops()
        assert census["MAJ"] == 3 and census["MAJ⁻¹"] == 3
        assert census["SWAP3_UP"] == 4
        assert census["SWAP"] == 1
        assert census["RESET"] == 3  # three local 2-bit resets
        # The paper books the six ancilla bits as two 3-bit resets.
        assert circuit.gate_count(include_resets=False) + 2 == 13
        assert ONE_D_RECOVERY_OPS_WITH_INIT == 13

    def test_gates_excluding_init_is_eleven(self):
        circuit = one_d_recovery_circuit(1)
        assert circuit.gate_count(include_resets=False) == 11

    def test_without_resets(self):
        census = one_d_recovery_circuit(1, include_resets=False).count_ops()
        assert "RESET" not in census
        assert sum(census.values()) == ONE_D_RECOVERY_OPS_WITHOUT_INIT == 11

    def test_routing_is_four_swap3_plus_one_swap(self):
        kinds = [op.kind for op in one_d_routing_ops()]
        assert kinds.count("SWAP") == 1
        assert sum(1 for kind in kinds if kind.startswith("SWAP3")) == 4

    def test_wrong_width_rejected(self):
        from repro.local.local_recovery import append_one_d_recovery

        with pytest.raises(CodingError):
            append_one_d_recovery(Circuit(8))

    def test_negative_cycles_rejected(self):
        with pytest.raises(CodingError):
            one_d_recovery_circuit(-1)


class TestOneDSemantics:
    @pytest.mark.parametrize("logical,word", all_corrupted_codewords())
    def test_corrects_all_single_errors(self, logical, word):
        circuit = one_d_recovery_circuit(1)
        output = run(circuit, embed_one_d(word))
        recovered = tuple(output[p] for p in ONE_D_DATA_POSITIONS)
        assert recovered == THREE_BIT_CODE.encode(logical)

    def test_data_returns_to_same_positions(self):
        # Unlike the non-local circuit, the 1D cycle ends with the
        # codeword back on positions 0, 3, 6 — cycles chain directly.
        circuit = one_d_recovery_circuit(3)
        output = run(circuit, embed_one_d((1, 1, 1)))
        assert tuple(output[p] for p in ONE_D_DATA_POSITIONS) == (1, 1, 1)

    def test_single_fault_leaves_at_most_one_error(self):
        circuit = one_d_recovery_circuit(1)
        for logical in (0, 1):
            codeword = THREE_BIT_CODE.encode(logical)
            for fault in iter_single_faults(circuit):
                output = run_with_faults(circuit, embed_one_d(codeword), [fault])
                recovered = tuple(output[p] for p in ONE_D_DATA_POSITIONS)
                assert THREE_BIT_CODE.errors_in(recovered, logical) <= 1

    def test_fault_then_clean_cycle_restores(self):
        two_cycles = one_d_recovery_circuit(2)
        one_cycle = one_d_recovery_circuit(1)
        for logical in (0, 1):
            codeword = THREE_BIT_CODE.encode(logical)
            for fault in iter_single_faults(one_cycle):
                output = run_with_faults(two_cycles, embed_one_d(codeword), [fault])
                recovered = tuple(output[p] for p in ONE_D_DATA_POSITIONS)
                assert recovered == codeword


class TestTileOrientation:
    def test_data_cells_column(self):
        cells = TileOrientation("col", 1).data_cells()
        assert cells == ((0, 1), (1, 1), (2, 1))

    def test_data_cells_row(self):
        cells = TileOrientation("row", 2).data_cells()
        assert cells == ((2, 0), (2, 1), (2, 2))

    def test_validation(self):
        with pytest.raises(LocalityError):
            TileOrientation("diag", 0)
        with pytest.raises(LocalityError):
            TileOrientation("row", 3)


class TestTwoDStructure:
    def test_locality_over_multiple_cycles(self):
        circuit, _ = two_d_recovery_circuit(5)
        assert circuit_is_local(circuit, two_d_lattice())

    def test_cycle_ops_match_nonlocal_count(self):
        circuit, _ = two_d_recovery_circuit(1)
        assert len(circuit) == 8
        counts = circuit.count_ops()
        assert counts == {"RESET": 2, "MAJ⁻¹": 3, "MAJ": 3}

    def test_negative_cycles_rejected(self):
        with pytest.raises(CodingError, match="cycle count"):
            two_d_recovery_circuit(-1)

    def test_wrong_width_rejected(self):
        with pytest.raises(CodingError, match="9 wires"):
            TileRecovery().append_cycle(Circuit(8))

    def test_orientation_alternates(self):
        tracker = TileRecovery()
        assert tracker.orientation == STANDARD_TILE_ORIENTATION
        circuit = Circuit(9)
        tracker.append_cycle(circuit)
        assert tracker.orientation.axis == "row"
        tracker.append_cycle(circuit)
        assert tracker.orientation.axis == "col"


class TestTwoDSemantics:
    @pytest.mark.parametrize("logical,word", all_corrupted_codewords())
    def test_corrects_all_single_errors(self, logical, word):
        circuit, tracker = two_d_recovery_circuit(1)
        start = (1, 4, 7)  # column 1 on the row-major 3x3 grid
        output = run(circuit, embed_codeword(word, start))
        recovered = tuple(output[w] for w in tracker.data_wires())
        assert recovered == THREE_BIT_CODE.encode(logical)

    def test_single_fault_leaves_at_most_one_error(self):
        circuit, tracker = two_d_recovery_circuit(1)
        start = (1, 4, 7)
        for logical in (0, 1):
            codeword = THREE_BIT_CODE.encode(logical)
            for fault in iter_single_faults(circuit):
                output = run_with_faults(circuit, embed_codeword(codeword, start), [fault])
                recovered = tuple(output[w] for w in tracker.data_wires())
                assert THREE_BIT_CODE.errors_in(recovered, logical) <= 1

    def test_many_cycles_preserve_corrupted_input(self):
        circuit, tracker = two_d_recovery_circuit(6)
        start = (1, 4, 7)
        for logical, word in all_corrupted_codewords():
            output = run(circuit, embed_codeword(word, start))
            recovered = tuple(output[w] for w in tracker.data_wires())
            assert recovered == THREE_BIT_CODE.encode(logical)
