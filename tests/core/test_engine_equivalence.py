"""Cross-engine differential tests: run == BatchedState == BitplaneState.

Seeded-random circuits built from the full gate library (random wire
maps, resets included) are executed through all three engines; for up
to 6 wires the check is exhaustive over all ``2**n`` inputs, and wider
circuits are checked on broadcast and random-row batches.  Any
divergence in the compiled bit-parallel lowering — gate cascades,
packing, majority voting — shows up here as a bit mismatch.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    BatchedState,
    BitplaneState,
    compile_circuit,
    run,
    run_batched,
)
from repro.core.bits import all_bit_vectors
from repro.core.circuit import Circuit
from repro.core.library import REGISTRY
from repro.errors import SimulationError

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


def reference_outputs(circuit: Circuit, rows: list[tuple[int, ...]]) -> np.ndarray:
    """The tuple-engine outputs for every row, as a uint8 matrix."""
    return np.array([run(circuit, row) for row in rows], dtype=np.uint8)


class TestExhaustiveEquivalence:
    @pytest.mark.parametrize("n_wires", [1, 2, 3, 4, 5, 6])
    def test_all_inputs_all_engines(self, n_wires):
        rng = np.random.default_rng(1000 + n_wires)
        rows = list(all_bit_vectors(n_wires))
        for _ in range(6):
            circuit = random_circuit(rng, n_wires, n_ops=20)
            expected = reference_outputs(circuit, rows)
            batched = run_batched(circuit, BatchedState.from_rows(rows))
            bitplane = compile_circuit(circuit).run(BitplaneState.from_rows(rows))
            np.testing.assert_array_equal(batched.array, expected)
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
        batched = run_batched(circuit, BatchedState.broadcast(input_bits, trials))
        bitplane = compile_circuit(circuit).run(
            BitplaneState.broadcast(input_bits, trials)
        )
        np.testing.assert_array_equal(batched.array, bitplane.array)
        np.testing.assert_array_equal(
            bitplane.array, np.tile(expected_row, (trials, 1))
        )

    def test_random_row_batches(self):
        rng = np.random.default_rng(3000)
        circuit = random_circuit(rng, 8, n_ops=30)
        rows = rng.integers(0, 2, size=(321, 8), dtype=np.uint8)
        batched = run_batched(circuit, BatchedState(rows.copy()))
        bitplane = compile_circuit(circuit).run(BitplaneState.from_rows(rows))
        np.testing.assert_array_equal(batched.array, bitplane.array)
        # Spot-check a handful of rows against the tuple engine.
        for index in (0, 63, 64, 320):
            expected = run(circuit, tuple(int(b) for b in rows[index]))
            assert tuple(bitplane.array[index]) == expected

    def test_roundtrip_between_engines(self):
        rng = np.random.default_rng(4000)
        rows = rng.integers(0, 2, size=(130, 5), dtype=np.uint8)
        bitplane = BitplaneState.from_batched(BatchedState(rows.copy()))
        np.testing.assert_array_equal(bitplane.to_batched().array, rows)


class TestObservationEquivalence:
    def test_columns_and_majority(self):
        rng = np.random.default_rng(7000)
        rows = rng.integers(0, 2, size=(513, 9), dtype=np.uint8)
        batched = BatchedState(rows.copy())
        bitplane = BitplaneState.from_rows(rows)
        for wire in range(9):
            np.testing.assert_array_equal(batched.column(wire), bitplane.column(wire))
        for size in (1, 3, 5, 7, 9):
            wires = tuple(int(w) for w in rng.choice(9, size=size, replace=False))
            np.testing.assert_array_equal(
                batched.columns(wires), bitplane.columns(wires)
            )
            np.testing.assert_array_equal(
                batched.majority_of(wires), bitplane.majority_of(wires)
            )


# ----------------------------------------------------------------------
# Error paths shared by both engines
# ----------------------------------------------------------------------

STATE_FACTORIES = [
    pytest.param(lambda: BatchedState.zeros(5, 10), id="batched"),
    pytest.param(lambda: BitplaneState.zeros(5, 10), id="bitplane"),
]


@pytest.mark.parametrize("factory", STATE_FACTORIES)
class TestSharedErrorPaths:
    def test_majority_rejects_empty_wires(self, factory):
        with pytest.raises(SimulationError, match="at least one wire"):
            factory().majority_of(())

    def test_majority_rejects_even_wire_count(self, factory):
        with pytest.raises(SimulationError, match="odd number"):
            factory().majority_of((0, 1))

    def test_reset_rejects_empty_wires(self, factory):
        with pytest.raises(SimulationError, match="at least one wire"):
            factory().reset(())
