"""Property-based laws of plane-program lowering.

The compiler lowers every gate's truth table to a plane program
(``copy`` / ``affine`` / ``anf`` / ``dnf``) and every circuit to a slot
schedule; these properties pin the lowering against the single-state
reference simulator and against the gate algebra itself:

1. Compile → apply over *all* inputs equals direct
   simulation, for random circuits (mixed gates and resets, widths up
   to 6).
2. Lowering commutes with inversion: the program of ``gate.inverse()``
   undoes the program of ``gate`` on random bit planes, so the ANF /
   affine lowering is involution-stable, not merely truth-table
   correct on broadcast states.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import library
from repro.core.bitplane import BitplaneState
from repro.core.circuit import Circuit
from repro.core.compiled import compile_circuit, gate_plane_program
from repro.core.library import REGISTRY
from repro.core.simulator import run as reference_run

_GATES = [
    library.X,
    library.CNOT,
    library.SWAP,
    library.TOFFOLI,
    library.MAJ,
    library.MAJ_INV,
    library.FREDKIN,
    library.SWAP3_DOWN,
]


def _all_rows(n_wires: int) -> np.ndarray:
    patterns = np.arange(1 << n_wires, dtype=np.int64)
    shifts = np.arange(n_wires - 1, -1, -1, dtype=np.int64)
    return ((patterns[:, None] >> shifts) & 1).astype(np.uint8)


@st.composite
def mixed_circuits(draw, max_wires: int = 6, max_ops: int = 10) -> Circuit:
    """Random circuits mixing library gates with wire resets."""
    n_wires = draw(st.integers(3, max_wires))
    circuit = Circuit(n_wires)
    gates = [g for g in _GATES if g.arity <= n_wires]
    for _ in range(draw(st.integers(0, max_ops))):
        if draw(st.booleans()) and draw(st.integers(0, 4)) == 0:
            count = draw(st.integers(1, min(2, n_wires)))
            wires = draw(
                st.permutations(list(range(n_wires))).map(lambda p: p[:count])
            )
            circuit.append_reset(*wires, value=draw(st.integers(0, 1)))
        else:
            gate = draw(st.sampled_from(gates))
            wires = draw(
                st.permutations(list(range(n_wires))).map(
                    lambda p: p[: gate.arity]
                )
            )
            circuit.append_gate(gate, *wires)
    return circuit


class TestLoweringMatchesSimulation:
    @given(mixed_circuits())
    @settings(max_examples=30, deadline=None)
    def test_compiled_apply_equals_reference_on_all_inputs(self, circuit):
        rows = _all_rows(circuit.n_wires)
        expected = np.asarray(
            [
                reference_run(circuit, tuple(int(b) for b in row))
                for row in rows
            ],
            dtype=np.uint8,
        )
        state = BitplaneState.from_rows(rows)
        compile_circuit(circuit).run(state)
        np.testing.assert_array_equal(state.array, expected)

    @given(mixed_circuits())
    @settings(max_examples=20, deadline=None)
    def test_fused_and_unfused_schedules_agree(self, circuit):
        rows = _all_rows(circuit.n_wires)
        fused = BitplaneState.from_rows(rows)
        unfused = BitplaneState.from_rows(rows)
        compile_circuit(circuit, fuse=True).run(fused)
        compile_circuit(circuit, fuse=False).run(unfused)
        np.testing.assert_array_equal(fused.planes, unfused.planes)


class TestLoweringInvolution:
    @pytest.mark.parametrize("name", sorted(REGISTRY))
    def test_inverse_program_undoes_program(self, name, rng):
        gate = REGISTRY[name]
        forward = gate_plane_program(gate)
        backward = gate_plane_program(gate.inverse())
        planes = rng.integers(
            0, 2**64, size=(gate.arity, 5), dtype=np.uint64
        )
        state = BitplaneState(planes.copy(), 5 * 64)
        wires = tuple(range(gate.arity))
        state.apply_program(forward, wires)
        state.apply_program(backward, wires)
        np.testing.assert_array_equal(state.planes, planes, err_msg=name)

    @pytest.mark.parametrize("name", sorted(REGISTRY))
    def test_self_inverse_gates_lower_to_involutions(self, name, rng):
        gate = REGISTRY[name]
        if not gate.is_self_inverse():
            pytest.skip("not self-inverse")
        program = gate_plane_program(gate)
        planes = rng.integers(
            0, 2**64, size=(gate.arity, 3), dtype=np.uint64
        )
        state = BitplaneState(planes.copy(), 3 * 64)
        wires = tuple(range(gate.arity))
        state.apply_program(program, wires)
        state.apply_program(program, wires)
        np.testing.assert_array_equal(state.planes, planes, err_msg=name)
