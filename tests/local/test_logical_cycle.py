"""Tests for the fully assembled 1D and 2D logical cycles."""

from __future__ import annotations

import numpy as np
import pytest

from repro.coding import THREE_BIT_CODE
from repro.core import MAJ, MAJ_INV, TOFFOLI, run
from repro.core.bits import index_to_bits
from repro.local import Chain, circuit_is_local
from repro.local.logical_cycle import (
    one_d_cycle_io,
    one_d_logical_cycle,
    two_d_cycle_io,
    two_d_logical_cycle,
)
from repro.noise import NoiseModel, NoisyRunner
from repro.errors import CodingError


def _decode_1d(output, data_wires):
    return tuple(
        THREE_BIT_CODE.decode(tuple(output[w] for w in data_wires[3 * j : 3 * j + 3]))
        for j in range(3)
    )


class TestOneDCycle:
    @pytest.mark.parametrize("gate", [MAJ, MAJ_INV, TOFFOLI])
    def test_logical_semantics_exhaustive(self, gate):
        circuit, _ = one_d_logical_cycle(gate)
        for packed in range(8):
            bits = index_to_bits(packed, 3)
            state, data_wires = one_d_cycle_io(bits)
            output = run(circuit, state)
            assert _decode_1d(output, data_wires) == gate.apply(bits)

    def test_locality(self):
        circuit, _ = one_d_logical_cycle(MAJ)
        assert circuit_is_local(circuit, Chain(27))

    def test_cycles_chain(self):
        # Two cycles of MAJ then MAJ⁻¹ restore the logical values.
        first, _ = one_d_logical_cycle(MAJ)
        second, _ = one_d_logical_cycle(MAJ_INV)
        combined = first + second
        state, data_wires = one_d_cycle_io((1, 0, 1))
        output = run(combined, state)
        assert _decode_1d(output, data_wires) == (1, 0, 1)

    def test_census_upper_bounds_schedule_count(self):
        # Home-cell counting includes pass-through operations, so it
        # sits at or above the schedule-level per-codeword G = 40.
        _, census = one_d_logical_cycle(MAJ)
        assert census.worst_codeword_ops >= 40
        assert census.total_ops < 3 * 40  # but far below 3 G

    def test_corrects_planted_error_during_cycle(self):
        circuit, _ = one_d_logical_cycle(MAJ)
        state, data_wires = one_d_cycle_io((1, 1, 1))
        corrupted = list(state)
        corrupted[data_wires[0]] ^= 1
        output = run(circuit, tuple(corrupted))
        assert _decode_1d(output, data_wires) == MAJ.apply((1, 1, 1))

    def test_gate_arity_validated(self):
        from repro.core import CNOT

        with pytest.raises(CodingError):
            one_d_logical_cycle(CNOT)

    def test_io_validation(self):
        with pytest.raises(CodingError):
            one_d_cycle_io((1, 0))
        with pytest.raises(CodingError):
            one_d_cycle_io((1, 0, 2))

    def test_survives_noise_below_threshold(self):
        circuit, _ = one_d_logical_cycle(MAJ)
        state, data_wires = one_d_cycle_io((1, 0, 1))
        runner = NoisyRunner(NoiseModel(gate_error=3e-4), seed=111)
        result = runner.run_from_input(circuit, state, trials=20000)
        expected = MAJ.apply((1, 0, 1))
        correct = np.ones(20000, dtype=bool)
        for j in range(3):
            majority = result.states.majority_of(data_wires[3 * j : 3 * j + 3])
            correct &= majority == expected[j]
        assert correct.mean() > 0.995


class TestTwoDCycle:
    def _decode(self, output, assembly, trackers):
        decoded = []
        for tile, tracker in enumerate(trackers):
            wires = [
                assembly.wire_at(3 * tile + row, col)
                for (row, col) in tracker.orientation.data_cells()
            ]
            decoded.append(THREE_BIT_CODE.decode(tuple(output[w] for w in wires)))
        return tuple(decoded)

    @pytest.mark.parametrize("gate", [MAJ, TOFFOLI])
    def test_logical_semantics_exhaustive(self, gate):
        circuit, _, assembly, trackers = two_d_logical_cycle(gate)
        for packed in range(8):
            bits = index_to_bits(packed, 3)
            state, _ = two_d_cycle_io(bits, assembly)
            output = run(circuit, state)
            assert self._decode(output, assembly, trackers) == gate.apply(bits)

    def test_locality_on_stacked_assembly(self):
        circuit, _, assembly, _ = two_d_logical_cycle(MAJ)
        assert circuit_is_local(circuit, assembly)

    def test_total_ops_far_below_one_d(self):
        _, census_2d, _, _ = two_d_logical_cycle(MAJ)
        _, census_1d = one_d_logical_cycle(MAJ)
        assert census_2d.total_ops < census_1d.total_ops / 2

    def test_interleave_is_nine_swap_equivalents(self):
        circuit, _, _, _ = two_d_logical_cycle(MAJ)
        counts = circuit.count_ops()
        swap_equivalents = counts.get("SWAP", 0) + 2 * (
            counts.get("SWAP3_UP", 0) + counts.get("SWAP3_DOWN", 0)
        )
        assert swap_equivalents == 18  # 9 interleave + 9 uninterleave

    def test_corrects_planted_error(self):
        circuit, _, assembly, trackers = two_d_logical_cycle(MAJ)
        state, data = two_d_cycle_io((0, 1, 0), assembly)
        corrupted = list(state)
        corrupted[data[1][2]] ^= 1
        output = run(circuit, tuple(corrupted))
        assert self._decode(output, assembly, trackers) == MAJ.apply((0, 1, 0))

    def test_io_validation(self):
        _, _, assembly, _ = two_d_logical_cycle(MAJ)
        with pytest.raises(CodingError):
            two_d_cycle_io((1,), assembly)
        with pytest.raises(CodingError, match="0 or 1"):
            two_d_cycle_io((1, 0, 2), assembly)

    def test_gate_arity_validated(self):
        from repro.core import CNOT

        with pytest.raises(CodingError, match="arity 2"):
            two_d_logical_cycle(CNOT)
