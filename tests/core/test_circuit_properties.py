"""Property-based laws of circuit algebra.

These pin down the semantics that every other layer builds on: circuit
concatenation is composition of actions, inversion really inverts,
and depth behaves under concatenation.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import library
from repro.core.circuit import Circuit
from repro.core.truth_table import circuit_permutation

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


@st.composite
def circuits(draw, n_wires: int = 4, max_ops: int = 8) -> Circuit:
    circuit = Circuit(n_wires)
    for _ in range(draw(st.integers(0, max_ops))):
        gate = draw(st.sampled_from(_GATES))
        wires = draw(
            st.permutations(list(range(n_wires))).map(lambda p: p[: gate.arity])
        )
        circuit.append_gate(gate, *wires)
    return circuit


class TestCompositionLaws:
    @given(circuits(), circuits())
    @settings(max_examples=40, deadline=None)
    def test_concatenation_composes_actions(self, left, right):
        combined = circuit_permutation(left + right)
        first, then = circuit_permutation(left), circuit_permutation(right)
        sequential = tuple(then[image] for image in first)
        assert combined == sequential

    @given(circuits())
    @settings(max_examples=40, deadline=None)
    def test_inverse_annihilates(self, circuit):
        identity = tuple(range(1 << circuit.n_wires))
        assert circuit_permutation(circuit + circuit.inverse()) == identity
        assert circuit_permutation(circuit.inverse() + circuit) == identity

    @given(circuits(), circuits(), circuits())
    @settings(max_examples=20, deadline=None)
    def test_concatenation_associative(self, a, b, c):
        assert circuit_permutation((a + b) + c) == circuit_permutation(a + (b + c))

    @given(circuits())
    @settings(max_examples=30, deadline=None)
    def test_double_inverse_restores_action(self, circuit):
        assert circuit_permutation(circuit.inverse().inverse()) == circuit_permutation(
            circuit
        )

    @given(circuits())
    @settings(max_examples=30, deadline=None)
    def test_double_inverse_round_trips_structurally(self, circuit):
        """inverse().inverse() restores the exact op sequence.

        Stronger than action equality: the synthesis optimiser relies
        on double inversion being the identity on circuit *content*
        (same gates, same wires, same order), not merely on behaviour.
        """
        assert circuit.inverse().inverse().ops == circuit.ops


class TestDepthProperties:
    @given(circuits())
    @settings(max_examples=40, deadline=None)
    def test_depth_bounded_by_length(self, circuit):
        assert circuit.depth() <= len(circuit)
        if len(circuit):
            assert circuit.depth() >= 1

    @given(circuits(), circuits())
    @settings(max_examples=30, deadline=None)
    def test_depth_subadditive_under_concatenation(self, a, b):
        assert (a + b).depth() <= a.depth() + b.depth()
