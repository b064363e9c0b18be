"""Property-based laws of cascade lowering.

The compiler lowers every gate's truth table to an in-place XOR cascade
``((target, invert, monomials), ...)`` and every circuit to a slot
schedule; these properties pin the lowering against the single-state
reference simulator and against the gate algebra itself, for the
library gates, all 24 two-bit gates and Hypothesis-drawn permutation
gates of arity 1-4:

1. Compile → apply over *all* inputs equals direct
   simulation, for random circuits (mixed gates and resets, widths up
   to 6).
2. A gate's cascade, walked by
   :meth:`~repro.core.bitplane.BitplaneState.apply_cascade` over all
   ``2**n`` input patterns, reproduces ``gate.table``, both as a single
   instance and stacked two wide.
3. Lowering commutes with inversion: the cascade of ``gate.inverse()``
   undoes the cascade of ``gate`` on random bit planes.
4. Slice views are all or nothing: a stacked group whose columns are
   not all arithmetic progressions gets none, and walking it instance
   by instance equals walking its rows one at a time.
5. ``MAJ`` lowers to exactly the paper's Figure 1, ``MAJ⁻¹`` to its
   reverse, and an identity gate to the empty cascade.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import library
from repro.core.bitplane import BitplaneState
from repro.core.circuit import Circuit
from repro.core.compiled import _column_slices, compile_circuit, gate_cascade
from repro.core.gate import Gate
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


#: Every two-bit reversible gate, named by its table.
TWO_BIT_GATES = {
    "2bit-" + "".join(map(str, table)): Gate("2bit", 2, table)
    for table in itertools.permutations(range(4))
}
LOWERED_GATES = {**REGISTRY, **TWO_BIT_GATES}


@st.composite
def permutation_gates(draw, max_arity: int = 4) -> Gate:
    """An arbitrary reversible gate of arity 1 to ``max_arity``."""
    arity = draw(st.integers(1, max_arity))
    table = draw(st.permutations(range(1 << arity)))
    return Gate("drawn", arity, tuple(table))


def _all_rows(n_wires: int) -> np.ndarray:
    patterns = np.arange(1 << n_wires, dtype=np.int64)
    shifts = np.arange(n_wires - 1, -1, -1, dtype=np.int64)
    return ((patterns[:, None] >> shifts) & 1).astype(np.uint8)


@st.composite
def mixed_circuits(draw, max_wires: int = 6, max_ops: int = 10) -> Circuit:
    """Random circuits mixing library and drawn gates with wire resets."""
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
            if draw(st.integers(0, 3)) == 0:
                gate = draw(permutation_gates(max_arity=min(4, n_wires)))
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


def _apply(state: BitplaneState, cascade: tuple, wire_matrix) -> None:
    """Apply ``cascade`` the way a fused slot group does."""
    matrix = np.asarray(wire_matrix, dtype=np.intp)
    state.apply_cascade(cascade, matrix, _column_slices(matrix))


def _assert_cascade_reproduces_table(gate: Gate) -> None:
    cascade = gate_cascade(gate)
    arity = gate.arity
    patterns = _all_rows(arity)
    expected = _all_rows(arity)[list(gate.table)]
    for k in (1, 2):
        state = BitplaneState.from_rows(np.tile(patterns, (1, k)))
        _apply(state, cascade, np.arange(k * arity).reshape(k, arity))
        np.testing.assert_array_equal(
            state.array, np.tile(expected, (1, k)), err_msg=f"{gate} k={k}"
        )


def _assert_inverse_undoes(gate: Gate, rng: np.random.Generator) -> None:
    planes = rng.integers(0, 2**64, size=(gate.arity, 5), dtype=np.uint64)
    state = BitplaneState(planes.copy(), 5 * 64)
    wires = [tuple(range(gate.arity))]
    _apply(state, gate_cascade(gate), wires)
    _apply(state, gate_cascade(gate.inverse()), wires)
    np.testing.assert_array_equal(state.planes, planes, err_msg=str(gate))


class TestLoweringMatchesTables:
    @pytest.mark.parametrize("name", sorted(LOWERED_GATES))
    def test_program_reproduces_table(self, name):
        _assert_cascade_reproduces_table(LOWERED_GATES[name])

    @given(permutation_gates(), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_drawn_gates_lower_exactly(self, gate, seed):
        _assert_cascade_reproduces_table(gate)
        _assert_inverse_undoes(gate, np.random.default_rng(seed))


class TestLoweringInvolution:
    @pytest.mark.parametrize("name", sorted(LOWERED_GATES))
    def test_inverse_program_undoes_program(self, name, rng):
        _assert_inverse_undoes(LOWERED_GATES[name], rng)

    @pytest.mark.parametrize("name", sorted(REGISTRY))
    def test_self_inverse_gates_lower_to_involutions(self, name, rng):
        gate = REGISTRY[name]
        if not gate.is_self_inverse():
            pytest.skip("not self-inverse")
        cascade = gate_cascade(gate)
        planes = rng.integers(
            0, 2**64, size=(gate.arity, 3), dtype=np.uint64
        )
        state = BitplaneState(planes.copy(), 3 * 64)
        wires = [tuple(range(gate.arity))]
        _apply(state, cascade, wires)
        _apply(state, cascade, wires)
        np.testing.assert_array_equal(state.planes, planes, err_msg=name)


class TestMixedViewGroups:
    # Three stacked instances: positions 0 and 2 take arithmetic
    # progressions, position 1 does not, so the group gets no views.
    WIRES = np.array([[0, 5, 6], [1, 3, 7], [2, 4, 8]], dtype=np.intp)

    def test_partial_progressions_get_no_views(self):
        assert _column_slices(self.WIRES) == ()
        assert _column_slices(self.WIRES[:, [0, 2]]) == (
            slice(0, 3, 1),
            slice(6, 9, 1),
        )

    @pytest.mark.parametrize(
        "name", sorted(n for n, g in LOWERED_GATES.items() if g.arity == 3)
    )
    def test_stacked_group_equals_rows_one_at_a_time(self, name, rng):
        cascade = gate_cascade(LOWERED_GATES[name])
        planes = rng.integers(0, 2**64, size=(9, 4), dtype=np.uint64)
        stacked = BitplaneState(planes.copy(), 4 * 64)
        stacked.apply_cascade(cascade, self.WIRES, _column_slices(self.WIRES))
        rows = BitplaneState(planes.copy(), 4 * 64)
        for row in self.WIRES:
            _apply(rows, cascade, [row])
        np.testing.assert_array_equal(stacked.planes, rows.planes, err_msg=name)


class TestPinnedCascades:
    #: Figure 1: CNOT(0→1), CNOT(0→2), then the Toffoli onto wire 0.
    FIGURE_1 = ((1, False, ((0,),)), (2, False, ((0,),)), (0, False, ((1, 2),)))

    def test_maj_lowers_to_figure_1(self):
        assert gate_cascade(library.MAJ) == self.FIGURE_1

    def test_maj_inverse_lowers_to_reversed_figure_1(self):
        assert gate_cascade(library.MAJ_INV) == self.FIGURE_1[::-1]

    @pytest.mark.parametrize("arity", [1, 2, 3])
    def test_identity_lowers_to_empty_cascade(self, arity):
        identity = Gate("id", arity, tuple(range(1 << arity)))
        assert gate_cascade(identity) == ()
