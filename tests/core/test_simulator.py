"""Tests for the deterministic and batched simulators."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import library
from repro.core.bits import index_to_bits
from repro.core.circuit import Circuit
from repro.core.simulator import BatchedState, apply_gate, run, run_batched
from repro.errors import SimulationError


def random_circuit(draw, n_wires: int, n_ops: int) -> Circuit:
    """Hypothesis helper: a random circuit mixing gates and resets."""
    circuit = Circuit(n_wires)
    gates = [library.X, library.CNOT, library.SWAP, library.TOFFOLI, library.MAJ,
             library.MAJ_INV, library.FREDKIN, library.SWAP3_UP]
    for _ in range(n_ops):
        gate = draw(st.sampled_from(gates))
        wires = draw(
            st.permutations(list(range(n_wires))).map(lambda p: p[: gate.arity])
        )
        circuit.append_gate(gate, *wires)
    return circuit


circuits = st.integers(3, 6).flatmap(
    lambda n: st.builds(
        lambda ops: (n, ops),
        st.integers(0, 12),
    )
)


class TestReferenceSimulator:
    def test_single_gate(self):
        state = [1, 0, 0]
        apply_gate(state, library.MAJ_INV, (0, 1, 2))
        assert state == [1, 1, 1]

    def test_wire_order_matters(self):
        state = [0, 1]
        apply_gate(state, library.CNOT, (1, 0))
        assert state == [1, 1]

    def test_run_with_reset(self):
        circuit = Circuit(2).x(0).append_reset(0)
        assert run(circuit, (0, 1)) == (0, 1)

    def test_run_rejects_wrong_width(self):
        with pytest.raises(SimulationError):
            run(Circuit(2), (0, 0, 0))

    def test_run_preserves_input(self):
        input_bits = (1, 0, 1)
        run(Circuit(3).maj(0, 1, 2), input_bits)
        assert input_bits == (1, 0, 1)


class TestBatchedState:
    def test_broadcast(self):
        batch = BatchedState.broadcast((1, 0), trials=4)
        assert batch.array.shape == (4, 2)
        assert (batch.column(0) == 1).all()

    def test_zeros(self):
        batch = BatchedState.zeros(3, 5)
        assert batch.array.sum() == 0

    def test_from_rows(self):
        batch = BatchedState.from_rows([(0, 1), (1, 0)])
        assert batch.trials == 2

    def test_rejects_non_binary(self):
        with pytest.raises(SimulationError):
            BatchedState(np.full((2, 2), 3, dtype=np.uint8))

    def test_rejects_wrong_rank(self):
        with pytest.raises(SimulationError):
            BatchedState(np.zeros(4, dtype=np.uint8))

    def test_apply_gate_vectorised(self):
        batch = BatchedState.from_rows([(1, 0, 0), (0, 0, 0), (1, 1, 1)])
        batch.apply_gate(library.MAJ_INV, (0, 1, 2))
        assert batch.array.tolist() == [[1, 1, 1], [0, 0, 0], [0, 1, 1]]

    def test_majority_of(self):
        batch = BatchedState.from_rows([(1, 0, 1), (0, 0, 1)])
        assert batch.majority_of((0, 1, 2)).tolist() == [1, 0]

    def test_majority_requires_odd(self):
        batch = BatchedState.zeros(2, 1)
        with pytest.raises(SimulationError):
            batch.majority_of((0, 1))

    def test_copy_is_independent(self):
        batch = BatchedState.zeros(2, 2)
        clone = batch.copy()
        clone.array[0, 0] = 1
        assert batch.array[0, 0] == 0


class TestEquivalence:
    """The batched engine must agree with the reference simulator."""

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_batched_matches_reference(self, data):
        n_wires = data.draw(st.integers(3, 6))
        n_ops = data.draw(st.integers(0, 12))
        circuit = random_circuit(data.draw, n_wires, n_ops)
        inputs = [
            index_to_bits(data.draw(st.integers(0, (1 << n_wires) - 1)), n_wires)
            for _ in range(4)
        ]
        batch = BatchedState.from_rows(inputs)
        run_batched(circuit, batch)
        for row, input_bits in enumerate(inputs):
            expected = run(circuit, input_bits)
            assert tuple(batch.array[row]) == expected

    def test_run_batched_rejects_width_mismatch(self):
        with pytest.raises(SimulationError):
            run_batched(Circuit(3), BatchedState.zeros(2, 4))
