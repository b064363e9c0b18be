"""Tests for the per-trial reference simulator and the bit-plane state."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import library
from repro.core.bitplane import BitplaneState
from repro.core.bits import index_to_bits
from repro.core.circuit import Circuit
from repro.core.compiled import compile_circuit
from repro.core.simulator import apply_gate, run
from repro.errors import GateDefinitionError, SimulationError


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


class TestBitplaneState:
    def test_broadcast(self):
        batch = BitplaneState.broadcast((1, 0), trials=4)
        assert batch.array.shape == (4, 2)
        assert (batch.column(0) == 1).all()

    def test_zeros(self):
        batch = BitplaneState.zeros(3, 5)
        assert batch.array.shape == (5, 3)
        assert batch.array.sum() == 0

    def test_zero_trials(self):
        batch = BitplaneState.zeros(3, 0)
        assert batch.n_words == 0
        assert batch.array.shape == (0, 3)
        assert batch.majority_of((0, 1, 2)).shape == (0,)
        assert batch.count_ones(batch.planes[0]) == 0

    def test_from_rows(self):
        batch = BitplaneState.from_rows([(0, 1), (1, 0)])
        assert (batch.trials, batch.n_wires, batch.n_words) == (2, 2, 1)
        assert batch.array.tolist() == [[0, 1], [1, 0]]

    def test_rejects_non_binary(self):
        with pytest.raises(GateDefinitionError, match="0 or 1"):
            BitplaneState.broadcast((0, 2), trials=4)

    def test_rejects_wrong_rank(self):
        with pytest.raises(SimulationError, match="2-D"):
            BitplaneState(np.zeros(4, dtype=np.uint64), 4)

    def test_apply_gate_vectorised(self):
        circuit = Circuit(3).append_gate(library.MAJ_INV, 0, 1, 2)
        batch = compile_circuit(circuit).run(
            BitplaneState.from_rows([(1, 0, 0), (0, 0, 0), (1, 1, 1)])
        )
        assert batch.array.tolist() == [[1, 1, 1], [0, 0, 0], [0, 1, 1]]

    def test_majority_of(self):
        batch = BitplaneState.from_rows([(1, 0, 1), (0, 0, 1)])
        assert batch.majority_of((0, 1, 2)).tolist() == [1, 0]

    def test_reset_sets_every_trial(self):
        batch = BitplaneState.from_rows([(1, 0, 1)] * 130)
        batch.reset((0, 1), 1)
        assert batch.count_ones(batch.planes[1]) == 130
        batch.reset((2,))
        assert batch.array.tolist() == [[1, 1, 0]] * 130


class TestEquivalence:
    """The bit-plane engine must agree with the reference simulator."""

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
        batch = compile_circuit(circuit).run(BitplaneState.from_rows(inputs))
        for row, input_bits in enumerate(inputs):
            expected = run(circuit, input_bits)
            assert tuple(batch.array[row]) == expected

    def test_compiled_run_rejects_width_mismatch(self):
        with pytest.raises(SimulationError):
            compile_circuit(Circuit(3)).run(BitplaneState.zeros(2, 4))
