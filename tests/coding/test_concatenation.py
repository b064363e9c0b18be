"""Tests for the concatenation compiler (Figure 3)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding.concatenation import (
    Block,
    compile_recovery,
    gamma_census,
)
from repro.coding.logical import LogicalProcessor, concatenated_gate_circuit
from repro.coding.recovery import RecoveryLayout
from repro.core import library
from repro.core.bitplane import BitplaneState, unpack_words
from repro.core.bits import index_to_bits
from repro.core.circuit import Circuit
from repro.core.simulator import run
from repro.errors import CodingError
from repro.noise.model import NoiseModel
from repro.noise.monte_carlo import NoisyRunner
from repro.runtime.executor import Executor
from repro.runtime.spec import (
    DecodedMismatchObservable,
    ExecutionPolicy,
    RunSpec,
)
from tests.conftest import reference_decode, reference_decode_failures


class TestBlockGeometry:
    def test_level_zero(self):
        block = Block.allocate(0, base=7)
        assert block.size == 1
        assert list(block.wires) == [7]
        assert block.deep_data_wires() == [7]

    def test_level_one(self):
        block = Block.allocate(1)
        assert block.size == 9
        assert block.deep_data_wires() == [0, 1, 2]
        ancillas = block.sub_blocks(block.roles.ancillas)
        assert [b.base for b in ancillas] == [3, 4, 5, 6, 7, 8]

    def test_level_two_size(self):
        block = Block.allocate(2, base=81)
        assert block.size == 81
        assert block.wires == range(81, 162)
        # Deep data: 3 data children x 3 deep wires each.
        assert len(block.deep_data_wires()) == 9

    def test_level_zero_has_no_children_queries(self):
        block = Block.allocate(0)
        with pytest.raises(CodingError):
            block.data_blocks()
        with pytest.raises(CodingError):
            block.sub_blocks((0,))

    @pytest.mark.parametrize("level", [1, 2])
    def test_recovery_rotates_roles(self, level):
        # The block's roles rotate exactly as the Figure-2 layout does.
        block = Block.allocate(level)
        compile_recovery(Circuit(block.size), block)
        assert block.roles == RecoveryLayout.standard().advance()
        assert sorted(block.roles.wires) == list(range(9))
        assert [b.base for b in block.data_blocks()] == [
            9 ** (level - 1) * i for i in (0, 3, 6)
        ]

    def test_decode_level_zero(self):
        block = Block.allocate(0, base=2)
        assert block.decode([0, 0, 1]) == 1

    def test_decode_level_one_majority(self):
        block = Block.allocate(1)
        state = [1, 0, 1] + [0] * 6
        assert block.decode(state) == 1


class TestCompiledSemantics:
    @given(st.integers(0, 7))
    @settings(max_examples=8, deadline=None)
    def test_level_one_gate_matches_logical_action(self, packed):
        logical_in = index_to_bits(packed, 3)
        computation = LogicalProcessor(3, level=1)
        physical = computation.physical_input(logical_in)
        computation.apply(library.MAJ, 0, 1, 2)
        output = run(computation.circuit, physical)
        assert computation.decode_output(output) == library.MAJ.apply(logical_in)

    def test_level_two_gate_matches_logical_action(self):
        computation = LogicalProcessor(3, level=2)
        physical = computation.physical_input((1, 0, 1))
        computation.apply(library.MAJ, 0, 1, 2)
        output = run(computation.circuit, physical)
        assert computation.decode_output(output) == library.MAJ.apply((1, 0, 1))

    def test_level_two_corrects_a_planted_physical_error(self):
        computation = LogicalProcessor(3, level=2)
        physical = list(computation.physical_input((1, 1, 0)))
        # Flip one deep physical bit of the first logical block.
        physical[computation.blocks[0].deep_data_wires()[0]] ^= 1
        computation.apply(library.MAJ, 0, 1, 2)
        output = run(computation.circuit, tuple(physical))
        assert computation.decode_output(output) == library.MAJ.apply((1, 1, 0))

    def test_two_logical_bit_gate(self):
        computation = LogicalProcessor(2, level=1)
        physical = computation.physical_input((1, 0))
        computation.apply(library.CNOT, 0, 1)
        output = run(computation.circuit, physical)
        assert computation.decode_output(output) == (1, 1)


def rotated_noisy_batch(level: int, trials: int):
    """A noisy level-``level`` MAJ whose recoveries have rotated roles."""
    computation = LogicalProcessor(3, level)
    physical = computation.physical_input((1, 0, 1))
    computation.apply(library.MAJ, 0, 1, 2)
    computation.recover(0)
    assert computation.blocks[0].roles != RecoveryLayout.standard()
    runner = NoisyRunner(NoiseModel(gate_error=0.03), seed=40 + level)
    result = runner.run_from_input(computation.circuit, physical, trials)
    return computation, result.states


class TestPackedDecode:
    """The packed recursive decode against the byte-per-bit reference."""

    @pytest.mark.parametrize("level", [1, 2])
    def test_majority_planes_equal_the_reference(self, level):
        computation, states = rotated_noisy_batch(level, trials=1000)
        decoded = reference_decode(computation, states)
        for index, block in enumerate(computation.blocks):
            plane = block.majority_plane(states)
            assert (unpack_words(plane, 1000) == decoded[:, index]).all()

    @pytest.mark.parametrize("level", [1, 2])
    @pytest.mark.parametrize("flip", [(0, 0, 0), (1, 1, 1), (0, 1, 0)])
    def test_failure_counts_equal_the_reference(self, level, flip):
        # 1000 trials leave a partial last word.  The correct word
        # (1, 1, 0) already mixes expected bits 0 and 1; the flips
        # expect the other bit on some or all logical bits, so nearly
        # every trial fails and no padding bit may be counted.
        computation, states = rotated_noisy_batch(level, trials=1000)
        correct = library.MAJ.apply((1, 0, 1))
        expected = tuple(bit ^ f for bit, f in zip(correct, flip))
        reference = reference_decode_failures(computation, states, expected)
        observable = DecodedMismatchObservable(computation, expected)
        assert states.count_ones(observable.failure_plane(states)) == reference
        assert reference > 0

    @pytest.mark.parametrize("expected", [(1,), (1, 1, 1, 1)])
    def test_wrong_length_expected_raises(self, expected):
        computation = LogicalProcessor(3, level=1)
        physical = computation.physical_input((1, 0, 1))
        states = BitplaneState.broadcast(physical, 70)
        observable = DecodedMismatchObservable(computation, expected)
        with pytest.raises(CodingError, match="expected 3 logical bits"):
            observable.failure_plane(states)
        spec = RunSpec(
            circuit=computation.circuit,
            input_bits=physical,
            observable=observable,
            noise=NoiseModel.noiseless(),
            trials=70,
            seed=0,
        )
        with pytest.raises(CodingError, match="expected 3 logical bits"):
            Executor(ExecutionPolicy()).run([spec])


class TestGamma:
    def test_census_matches_paper_gamma(self):
        # Gamma_k = (3(1+E))^k with E = 6 (gates-only accounting).
        for level, expected in ((1, 21), (2, 441)):
            circuit, _ = concatenated_gate_circuit(library.MAJ, level)
            assert gamma_census(circuit)["gates"] == expected

    def test_level_two_op_count(self):
        # The compiled level-2 logical gate: Gamma_2 = 441 gates plus
        # 180 resets, on 243 wires.
        circuit, _ = concatenated_gate_circuit(library.MAJ, 2)
        assert len(circuit) == 441 + 180
        assert circuit.n_wires == 243
        assert gamma_census(circuit)["resets"] == 180

    def test_level_one_reset_count(self):
        circuit, _ = concatenated_gate_circuit(library.MAJ, 1)
        assert gamma_census(circuit)["resets"] == 3 * 2  # 3 recoveries

    def test_recovery_only_census(self):
        circuit = Circuit(9)
        compile_recovery(circuit, Block.allocate(1))
        counts = circuit.count_ops()
        assert counts == {"RESET": 2, "MAJ⁻¹": 3, "MAJ": 3}

    def test_recover_false_gives_bare_transversal(self):
        computation = LogicalProcessor(3, level=1)
        computation.apply(library.MAJ, 0, 1, 2, recover=False)
        assert len(computation.circuit) == 3


class TestValidation:
    def test_recovery_needs_level_one(self):
        with pytest.raises(CodingError):
            compile_recovery(Circuit(1), Block.allocate(0))

    def test_level_must_be_positive(self):
        with pytest.raises(CodingError):
            LogicalProcessor(1, level=0)

    def test_needs_a_logical_bit(self):
        with pytest.raises(CodingError, match="logical bit"):
            LogicalProcessor(0)

    @pytest.mark.parametrize(
        "level,children,match",
        [(-1, (), "level must be >= 0"), (1, (), "needs 9 children")],
        ids=["negative-level", "missing-children"],
    )
    def test_block_shape_validated(self, level, children, match):
        with pytest.raises(CodingError, match=match):
            Block(level=level, base=0, children=children)

    def test_operands_must_be_distinct(self):
        computation = LogicalProcessor(2, level=1)
        with pytest.raises(CodingError):
            computation.apply(library.CNOT, 0, 0)

    def test_physical_input_validates(self):
        computation = LogicalProcessor(2, level=1)
        with pytest.raises(CodingError):
            computation.physical_input((1,))
        with pytest.raises(CodingError):
            computation.physical_input((1, 2))

    def test_mixed_level_operands_rejected(self):
        from repro.coding.concatenation import compile_gate

        circuit = Circuit(90)
        blocks = [Block.allocate(1, 0), Block.allocate(0, 9), Block.allocate(1, 10)]
        with pytest.raises(CodingError):
            compile_gate(circuit, library.MAJ, blocks)
