"""Tests for transversal logic (LogicalProcessor) at levels 1 and 2."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding.logical import LogicalProcessor
from repro.core import library
from repro.core.bits import all_bit_vectors, index_to_bits
from repro.core.simulator import run
from repro.noise.model import NoiseModel
from repro.noise.monte_carlo import NoisyRunner
from repro.errors import CodingError

three_bit_gates = st.sampled_from(
    [library.MAJ, library.MAJ_INV, library.TOFFOLI, library.FREDKIN, library.SWAP3_UP]
)

#: Every processor behaviour holds at the base case and one level up.
LEVELS = pytest.mark.parametrize("level", [1, 2])


class TestTransversal:
    def test_wire_triples(self):
        # Bit i of every operand codeword meets in one physical gate.
        processor = LogicalProcessor(2)
        processor.apply(library.CNOT, 0, 1, recover=False)
        assert [op.wires for op in processor.circuit] == [(0, 9), (1, 10), (2, 11)]

    @LEVELS
    def test_arity_checked(self, level):
        processor = LogicalProcessor(2, level)
        with pytest.raises(CodingError):
            processor.apply(library.MAJ, 0, 1)  # arity 3, two operands

    @LEVELS
    def test_distinct_operands_required(self, level):
        processor = LogicalProcessor(2, level)
        with pytest.raises(CodingError):
            processor.apply(library.CNOT, 0, 0)

    @LEVELS
    def test_operand_range_checked(self, level):
        processor = LogicalProcessor(2, level)
        with pytest.raises(CodingError):
            processor.apply(library.CNOT, 0, 5)


class TestBitIndices:
    """Every logical bit index is range-checked, never wrapped."""

    @LEVELS
    def test_negative_operand_refused(self, level):
        processor = LogicalProcessor(2, level)
        with pytest.raises(CodingError, match="out of range"):
            processor.apply(library.CNOT, -1, 0)
        assert len(processor.circuit) == 0
        assert processor.logical_gates_applied == 0

    @LEVELS
    def test_operand_past_the_last_bit_refused(self, level):
        processor = LogicalProcessor(2, level)
        with pytest.raises(CodingError, match="out of range"):
            processor.apply(library.CNOT, 0, 2)
        assert len(processor.circuit) == 0

    @LEVELS
    @pytest.mark.parametrize("bit", [-1, 2])
    def test_recover_range_checked(self, level, bit):
        processor = LogicalProcessor(2, level)
        with pytest.raises(CodingError, match="out of range"):
            processor.recover(bit)
        assert len(processor.circuit) == 0

    @LEVELS
    def test_physical_input_encodes_the_initial_roles(self, level):
        # Recovery rotates the roles; the input must not follow them.
        processor = LogicalProcessor(2, level)
        before = processor.physical_input((1, 0))
        processor.apply(library.CNOT, 0, 1)
        processor.recover(0)
        assert processor.physical_input((1, 0)) == before
        output = run(processor.circuit, before)
        assert processor.decode_output(output) == (1, 1)


class TestNoiselessSemantics:
    @LEVELS
    @given(gate=three_bit_gates, packed=st.integers(0, 7))
    @settings(max_examples=24, deadline=None)
    def test_logical_gate_acts_on_logical_values(self, level, gate, packed):
        logical_in = index_to_bits(packed, 3)
        processor = LogicalProcessor(3, level)
        processor.apply(gate, 0, 1, 2)
        output = run(processor.circuit, processor.physical_input(logical_in))
        assert processor.decode_output(output) == gate.apply(logical_in)

    @LEVELS
    def test_cnot_on_two_logical_bits(self, level):
        processor = LogicalProcessor(2, level)
        processor.apply(library.CNOT, 0, 1)
        output = run(processor.circuit, processor.physical_input((1, 0)))
        assert processor.decode_output(output) == (1, 1)

    @LEVELS
    def test_gate_sequence(self, level):
        # A chain of logical gates with interleaved recovery cycles.
        processor = LogicalProcessor(3, level)
        processor.apply(library.CNOT, 0, 1)
        processor.apply(library.TOFFOLI, 0, 1, 2)
        processor.apply(library.CNOT, 1, 2)
        state = (1, 0, 0)
        output = run(processor.circuit, processor.physical_input(state))
        expected = (1, 1, 0)
        expected = (expected[0], expected[1], expected[2] ^ (expected[0] & expected[1]))
        expected = (expected[0], expected[1], expected[2] ^ expected[1])
        assert processor.decode_output(output) == expected

    # A level-1 gate is 3 transversal gates + 3 recoveries of 8 ops =
    # 27.  A level-2 recovery resets 6 ancilla sub-blocks of 9 wires
    # (18 3-bit resets) and runs 6 level-1 gates: 18 + 6 * 27 = 180.
    # A level-2 gate is 3 level-1 gates + 3 level-2 recoveries.
    @pytest.mark.parametrize("level,ops", [(1, 3 + 3 * 8), (2, 3 * 27 + 3 * 180)])
    def test_recovery_cycles_appended_per_operand(self, level, ops):
        processor = LogicalProcessor(3, level)
        processor.apply(library.MAJ, 0, 1, 2)
        assert len(processor.circuit) == ops

    @pytest.mark.parametrize("level,ops", [(1, 3), (2, 3 * 27)])
    def test_recover_flag_skips_recovery(self, level, ops):
        # Only the top-level recovery is skipped.
        processor = LogicalProcessor(3, level)
        processor.apply(library.MAJ, 0, 1, 2, recover=False)
        assert len(processor.circuit) == ops

    @pytest.mark.parametrize("level,ops", [(1, 8), (2, 180)])
    def test_recover_all(self, level, ops):
        processor = LogicalProcessor(2, level)
        processor.recover(0)
        processor.recover(1)
        assert len(processor.circuit) == 2 * ops

    # Without resets a level-1 recovery is 6 gates and a level-2 one
    # runs 6 level-1 gates of 3 + 3 * 6 ops each.
    @pytest.mark.parametrize("level,ops", [(1, 6), (2, 6 * (3 + 3 * 6))])
    def test_include_resets_false_drops_resets_at_every_level(self, level, ops):
        processor = LogicalProcessor(1, level, include_resets=False)
        processor.recover(0)
        assert len(processor.circuit) == ops
        assert processor.circuit.count_ops().get("RESET", 0) == 0
        output = run(processor.circuit, processor.physical_input((1,)))
        assert processor.decode_output(output) == (1,)


class TestInputOutput:
    def test_physical_input_places_codewords(self):
        processor = LogicalProcessor(2)
        state = processor.physical_input((1, 0))
        assert state[0:3] == (1, 1, 1)
        assert state[9:12] == (0, 0, 0)
        assert sum(state) == 3

    @LEVELS
    def test_physical_input_length_checked(self, level):
        with pytest.raises(CodingError):
            LogicalProcessor(2, level).physical_input((1,))

    @LEVELS
    def test_decode_follows_layout_rotation(self, level):
        processor = LogicalProcessor(1, level)
        processor.recover(0)
        output = run(processor.circuit, processor.physical_input((1,)))
        assert processor.decode_output(output) == (1,)

    @LEVELS
    def test_decode_batch_matches_scalar_decode(self, level):
        processor = LogicalProcessor(2, level)
        processor.apply(library.CNOT, 0, 1)
        physical = processor.physical_input((1, 1))
        runner = NoisyRunner(NoiseModel.noiseless(), seed=0)
        result = runner.run_from_input(processor.circuit, physical, trials=8)
        decoded = processor.decode_batch(result.states)
        assert decoded.shape == (8, 2)
        assert (decoded == np.array([1, 0], dtype=np.uint8)).all()


class TestFaultToleranceValue:
    def test_protected_beats_unprotected_at_moderate_noise(self):
        gate_error = 0.004
        trials = 4000
        logical_in = (1, 0, 1)
        expected = library.MAJ.apply(logical_in)

        protected = LogicalProcessor(3)
        for _ in range(4):
            protected.apply(library.MAJ, 0, 1, 2)
            protected.apply(library.MAJ_INV, 0, 1, 2)
        protected.apply(library.MAJ, 0, 1, 2)
        runner = NoisyRunner(NoiseModel(gate_error=gate_error), seed=5)
        result = runner.run_from_input(
            protected.circuit, protected.physical_input(logical_in), trials
        )
        decoded = protected.decode_batch(result.states)
        protected_failures = (
            (decoded != np.asarray(expected, dtype=np.uint8)).any(axis=1).mean()
        )

        from repro.core.circuit import Circuit

        bare = Circuit(3)
        for _ in range(4):
            bare.maj(0, 1, 2).maj_inv(0, 1, 2)
        bare.maj(0, 1, 2)
        runner = NoisyRunner(NoiseModel(gate_error=gate_error), seed=6)
        bare_result = runner.run_from_input(bare, logical_in, trials)
        bare_failures = (
            (bare_result.states.array != np.asarray(expected, dtype=np.uint8))
            .any(axis=1)
            .mean()
        )
        assert protected_failures < bare_failures
