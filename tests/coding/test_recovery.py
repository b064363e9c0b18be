"""Exhaustive verification of the Figure-2 recovery circuit.

These tests *prove* (by enumeration, not sampling) the three
fault-tolerance properties the paper argues in Section 2.
"""

from __future__ import annotations

import pytest

from repro.coding.concatenation import (
    Block,
    compile_recovery,
    recovery_circuit,
    repeated_recovery,
)
from repro.coding.recovery import (
    OUTPUT_WIRES,
    RECOVERY_OPS_WITH_INIT,
    RECOVERY_OPS_WITHOUT_INIT,
    RecoveryLayout,
    operations_per_encoded_gate,
    recovery_op_count,
)
from repro.coding.repetition import THREE_BIT_CODE
from repro.core.circuit import Circuit
from repro.core.simulator import run
from repro.noise.injector import iter_single_faults, run_with_faults
from repro.errors import CodingError

from tests.conftest import all_corrupted_codewords, embed_standard


class TestStructure:
    def test_operation_counts_match_paper(self):
        assert len(recovery_circuit(include_resets=True)) == 8
        assert len(recovery_circuit(include_resets=False)) == 6
        assert recovery_op_count(True) == RECOVERY_OPS_WITH_INIT == 8
        assert recovery_op_count(False) == RECOVERY_OPS_WITHOUT_INIT == 6

    def test_g_is_three_plus_e(self):
        assert operations_per_encoded_gate(True) == 11
        assert operations_per_encoded_gate(False) == 9

    def test_gate_kinds(self):
        counts = recovery_circuit().count_ops()
        assert counts == {"RESET": 2, "MAJ⁻¹": 3, "MAJ": 3}

    def test_encode_before_decode(self):
        labels = [op.label for op in recovery_circuit(include_resets=False)]
        assert labels == ["MAJ⁻¹"] * 3 + ["MAJ"] * 3


class TestCorrection:
    @pytest.mark.parametrize("logical,word", all_corrupted_codewords())
    def test_corrects_all_single_errors(self, logical, word):
        circuit = recovery_circuit()
        output = run(circuit, embed_standard(word))
        recovered = tuple(output[w] for w in OUTPUT_WIRES)
        assert recovered == THREE_BIT_CODE.encode(logical)

    def test_double_errors_flip_the_logical_value(self):
        circuit = recovery_circuit()
        word = THREE_BIT_CODE.corrupt(THREE_BIT_CODE.encode(0), [0, 1])
        output = run(circuit, embed_standard(word))
        recovered = tuple(output[w] for w in OUTPUT_WIRES)
        assert recovered == THREE_BIT_CODE.encode(1)

    def test_requires_clean_ancillas_without_resets(self):
        circuit = recovery_circuit(include_resets=False)
        dirty = (1, 1, 1) + (1, 0, 0, 0, 0, 0)
        output = run(circuit, dirty)
        # A dirty ancilla acts like an input error somewhere; the point
        # here is just that the reset-free circuit is not magically
        # immune — the with-resets version is.
        with_resets = run(recovery_circuit(include_resets=True), dirty)
        assert tuple(with_resets[w] for w in OUTPUT_WIRES) == (1, 1, 1)
        assert len(output) == 9


class TestFaultTolerance:
    def test_any_single_fault_leaves_at_most_one_output_error(self):
        circuit = recovery_circuit()
        for logical in (0, 1):
            codeword = THREE_BIT_CODE.encode(logical)
            for fault in iter_single_faults(circuit):
                output = run_with_faults(circuit, embed_standard(codeword), [fault])
                recovered = tuple(output[w] for w in OUTPUT_WIRES)
                errors = THREE_BIT_CODE.errors_in(recovered, logical)
                assert errors <= 1, (logical, fault)

    def test_single_fault_then_clean_recovery_restores(self):
        # "that can be repaired in the next error-recovery cycle"
        circuit, layout = repeated_recovery(2)
        one_cycle = recovery_circuit()
        for logical in (0, 1):
            codeword = THREE_BIT_CODE.encode(logical)
            for fault in iter_single_faults(one_cycle):
                output = run_with_faults(circuit, embed_standard(codeword), [fault])
                recovered = tuple(output[w] for w in layout.data)
                assert recovered == codeword, (logical, fault)

    def test_encode_fault_never_corrupts_output(self):
        # A fault on an encode MAJ⁻¹ hits one bit per decode block, so
        # the output codeword is *fully* correct, not just within
        # distance one.
        circuit = recovery_circuit()
        encode_indices = [
            i for i, op in enumerate(circuit) if op.label == "MAJ⁻¹"
        ]
        for logical in (0, 1):
            codeword = THREE_BIT_CODE.encode(logical)
            for fault in iter_single_faults(circuit):
                if fault.op_index not in encode_indices:
                    continue
                output = run_with_faults(circuit, embed_standard(codeword), [fault])
                recovered = tuple(output[w] for w in OUTPUT_WIRES)
                assert recovered == codeword


class TestLayout:
    def test_standard_layout(self):
        layout = RecoveryLayout.standard()
        assert layout.data == (0, 1, 2)
        assert layout.encode_triples() == ((0, 3, 6), (1, 4, 7), (2, 5, 8))
        assert layout.decode_triples() == ((0, 1, 2), (3, 4, 5), (6, 7, 8))
        assert layout.advance().data == OUTPUT_WIRES == (0, 3, 6)

    def test_advance_partitions_wires(self):
        layout = RecoveryLayout.standard()
        advanced = layout.advance()
        assert sorted(advanced.data + advanced.ancillas) == list(range(9))

    def test_rejects_overlapping_wires(self):
        with pytest.raises(CodingError):
            RecoveryLayout(data=(0, 1, 2), ancillas=(2, 3, 4, 5, 6, 7))

    def test_rejects_wrong_role_sizes(self):
        with pytest.raises(CodingError, match="3 data and 6 ancilla"):
            RecoveryLayout(data=(0, 1, 2, 3), ancillas=(4, 5, 6, 7, 8))

    def test_compile_recovery_advances_the_block_roles(self):
        circuit = Circuit(9)
        block = Block.allocate(1)
        compile_recovery(circuit, block)
        assert block.roles == RecoveryLayout.standard().advance()
        assert block.roles.data == (0, 3, 6)
        assert len(circuit) == 8


class TestRepeatedRecovery:
    def test_many_cycles_preserve_logical_value(self):
        circuit, layout = repeated_recovery(6)
        for logical, word in all_corrupted_codewords():
            output = run(circuit, embed_standard(word))
            recovered = tuple(output[w] for w in layout.data)
            assert recovered == THREE_BIT_CODE.encode(logical)

    def test_cycle_count_scales_ops(self):
        circuit, _ = repeated_recovery(4)
        assert len(circuit) == 4 * 8

    def test_negative_cycles_rejected(self):
        with pytest.raises(CodingError):
            repeated_recovery(-1)
