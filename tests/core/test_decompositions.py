"""Every decomposition must reproduce its target gate exactly."""

from __future__ import annotations

import pytest

from repro.core import library
from repro.core.circuit import Circuit
from repro.core.decompositions import (
    DECOMPOSITIONS,
    maj_circuit,
    nand_via_maj_inv_circuit,
    toffoli_from_maj_circuit,
)
from repro.core.simulator import run
from repro.core.truth_table import circuit_gate, circuit_permutation


def _target_action(gate, wire_order):
    """The target gate applied on the given wire order, as a circuit."""
    circuit = Circuit(len(wire_order))
    circuit.append_gate(gate, *wire_order)
    return circuit_permutation(circuit)


class TestAllDecompositions:
    @pytest.mark.parametrize("name", sorted(DECOMPOSITIONS))
    def test_action_matches_target(self, name):
        circuit, gate, wire_order = DECOMPOSITIONS[name]
        assert circuit_permutation(circuit) == _target_action(
            gate, wire_order
        ), name

    @pytest.mark.parametrize("name", sorted(DECOMPOSITIONS))
    def test_decompositions_use_only_other_gates(self, name):
        """No decomposition cheats by containing its own target."""
        circuit, gate, _ = DECOMPOSITIONS[name]
        if name in ("maj", "maj_inv", "swap3_up", "swap3_down", "swap"):
            assert gate.name not in circuit.count_ops()


class TestSpecificConstructions:
    def test_figure_1_gate_census(self):
        counts = maj_circuit().count_ops()
        assert counts == {"CNOT": 2, "TOFFOLI": 1}

    def test_toffoli_from_maj_round_trip(self):
        # Composing the construction with a native Toffoli on the same
        # wires yields the identity.
        circuit = toffoli_from_maj_circuit()
        circuit.toffoli(1, 2, 0)
        assert circuit_gate(circuit, "round-trip").is_identity()

    def test_nand_via_maj_inv(self):
        circuit = nand_via_maj_inv_circuit()
        for a in (0, 1):
            for b in (0, 1):
                output = run(circuit, (1, a, b))
                assert output[0] == 1 - (a & b)

    def test_nand_discard_distribution_is_three_halves(self):
        from repro.analysis.entropy import empirical_entropy

        circuit = nand_via_maj_inv_circuit()
        discards = []
        for a in (0, 1):
            for b in (0, 1):
                output = run(circuit, (1, a, b))
                discards.append((output[1], output[2]))
        assert empirical_entropy(discards) == pytest.approx(1.5)

    def test_fredkin_construction_is_self_inverse(self):
        circuit, _, _ = DECOMPOSITIONS["fredkin"]
        doubled = circuit + circuit
        assert circuit_gate(doubled, "doubled").is_identity()

    def test_swap3_constructions_compose_to_identity(self):
        up, _, _ = DECOMPOSITIONS["swap3_up"]
        down, _, _ = DECOMPOSITIONS["swap3_down"]
        assert circuit_gate(up + down, "up-down").is_identity()

    def test_circuit_gate_wrapping(self):
        built = circuit_gate(maj_circuit(), "maj-built")
        assert built.same_action(library.MAJ)
