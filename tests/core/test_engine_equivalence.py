"""Differential tests: the bit-plane engine against the per-trial ``run``.

Seeded-random circuits built from the full gate library (random wire
maps, resets included) are run on ``BitplaneState`` batches and
compared, trial by trial, with :func:`repro.core.simulator.run`
(``tests.conftest.reference_outputs``); for up to 6 wires the check is
exhaustive over all ``2**n`` inputs, and wider circuits are checked on
broadcast and random-row batches.  Any divergence in the compiled
bit-parallel lowering — gate cascades, packing, majority voting —
shows up here as a bit mismatch.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.bitplane import BitplaneState
from repro.core.bits import all_bit_vectors
from repro.core.circuit import Circuit
from repro.core.compiled import compile_circuit
from repro.core.library import REGISTRY
from repro.core.simulator import run
from repro.errors import SimulationError
from tests.conftest import reference_outputs

GATES = tuple(REGISTRY.values())


def random_circuit(
    rng: np.random.Generator,
    n_wires: int,
    n_ops: int,
    reset_probability: float = 0.15,
) -> Circuit:
    """A random circuit over the full gate library, resets included."""
    circuit = Circuit(n_wires)
    usable = [gate for gate in GATES if gate.arity <= n_wires]
    for _ in range(n_ops):
        if rng.random() < reset_probability:
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


class TestExhaustiveEquivalence:
    @pytest.mark.parametrize("n_wires", [1, 2, 3, 4, 5, 6])
    def test_all_inputs_all_engines(self, n_wires):
        rng = np.random.default_rng(1000 + n_wires)
        rows = list(all_bit_vectors(n_wires))
        for _ in range(6):
            circuit = random_circuit(rng, n_wires, n_ops=20)
            expected = reference_outputs(circuit, rows)
            bitplane = compile_circuit(circuit).run(BitplaneState.from_rows(rows))
            np.testing.assert_array_equal(bitplane.array, expected)

    def test_reset_free_circuits_too(self):
        # Reset-free circuits exercise pure gate lowering (and can be
        # inverted, which the invariant suite relies on).
        rng = np.random.default_rng(77)
        rows = list(all_bit_vectors(5))
        for _ in range(4):
            circuit = random_circuit(rng, 5, n_ops=25, reset_probability=0.0)
            expected = reference_outputs(circuit, rows)
            bitplane = compile_circuit(circuit).run(BitplaneState.from_rows(rows))
            np.testing.assert_array_equal(bitplane.array, expected)


class TestBatchEquivalenceBeyondExhaustive:
    @pytest.mark.parametrize("trials", [1, 63, 64, 257, 1000])
    def test_broadcast_batches(self, trials):
        rng = np.random.default_rng(2000 + trials)
        circuit = random_circuit(rng, 9, n_ops=40)
        input_bits = tuple(int(b) for b in rng.integers(0, 2, size=9))
        expected_row = np.asarray(run(circuit, input_bits), dtype=np.uint8)
        bitplane = compile_circuit(circuit).run(
            BitplaneState.broadcast(input_bits, trials)
        )
        np.testing.assert_array_equal(
            bitplane.array, np.tile(expected_row, (trials, 1))
        )

    def test_random_row_batches(self):
        rng = np.random.default_rng(3000)
        circuit = random_circuit(rng, 8, n_ops=30)
        rows = rng.integers(0, 2, size=(321, 8), dtype=np.uint8)
        bitplane = compile_circuit(circuit).run(BitplaneState.from_rows(rows))
        np.testing.assert_array_equal(bitplane.array, reference_outputs(circuit, rows))


class TestObservationEquivalence:
    """Packed observations against plain NumPy on the input rows."""

    def test_columns_and_majority(self):
        rng = np.random.default_rng(7000)
        rows = rng.integers(0, 2, size=(513, 9), dtype=np.uint8)
        bitplane = BitplaneState.from_rows(rows)
        np.testing.assert_array_equal(bitplane.array, rows)
        for wire in range(9):
            np.testing.assert_array_equal(bitplane.column(wire), rows[:, wire])
        for size in (1, 3, 5, 7, 9):
            wires = [int(w) for w in rng.choice(9, size=size, replace=False)]
            np.testing.assert_array_equal(bitplane.columns(wires), rows[:, wires])
            np.testing.assert_array_equal(
                bitplane.majority_of(wires),
                (rows[:, wires].sum(axis=1) * 2 > size).astype(np.uint8),
            )


# ----------------------------------------------------------------------
# Error paths
# ----------------------------------------------------------------------


class TestSharedErrorPaths:
    def test_majority_rejects_empty_wires(self):
        with pytest.raises(SimulationError, match="at least one wire"):
            BitplaneState.zeros(5, 10).majority_of(())

    def test_majority_rejects_even_wire_count(self):
        with pytest.raises(SimulationError, match="odd number"):
            BitplaneState.zeros(5, 10).majority_of((0, 1))

    def test_reset_rejects_empty_wires(self):
        with pytest.raises(SimulationError, match="at least one wire"):
            BitplaneState.zeros(5, 10).reset(())

    def test_rows_reject_non_binary_entries(self):
        with pytest.raises(SimulationError, match="0 or 1"):
            BitplaneState.from_rows(np.full((2, 2), 3, dtype=np.uint8))

    @pytest.mark.parametrize("rows", [[0, 1, 0, 1], [[[0, 1]]]], ids=["1-D", "3-D"])
    def test_rows_reject_wrong_rank(self, rows):
        with pytest.raises(SimulationError, match="2-D"):
            BitplaneState.from_rows(rows)

    def test_planes_reject_non_uint64(self):
        with pytest.raises(SimulationError, match="uint64"):
            BitplaneState(np.zeros((2, 1), dtype=np.uint8), 10)

    def test_planes_reject_wrong_word_count(self):
        with pytest.raises(SimulationError, match="2 words per plane, got 1"):
            BitplaneState(np.zeros((2, 1), dtype=np.uint64), 65)

    def test_planes_reject_negative_trials(self):
        with pytest.raises(SimulationError, match="trials must be >= 0"):
            BitplaneState(np.zeros((2, 0), dtype=np.uint64), -1)
