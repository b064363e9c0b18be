"""The GF(2)/ANF algebra that underwrites symbolic verification.

The verifier is only as trustworthy as its algebra, so the algebra is
pinned against an independent oracle: exhaustive truth tables (for
evaluation) and :func:`~repro.core.truth_table.circuit_permutation`
(for whole circuits, composed here from :func:`table_anf` op by op).
"""

from __future__ import annotations

import itertools

import pytest

from repro.core import library
from repro.core.anf import (
    ONE,
    ZERO,
    constant,
    evaluate,
    p_and,
    p_xor,
    substitute,
    table_anf,
    variable,
)
from repro.core.circuit import Circuit
from repro.core.decompositions import DECOMPOSITIONS
from repro.core.truth_table import circuit_permutation
from repro.errors import VerificationError

x0, x1, x2 = variable(0), variable(1), variable(2)


class TestAlgebra:
    def test_constants(self):
        assert constant(0) == ZERO
        assert constant(1) == ONE

    def test_xor_self_cancels(self):
        assert p_xor(x0, x0) == ZERO
        assert p_xor(x0, x1, x0) == x1

    def test_and_idempotent_over_gf2(self):
        assert p_and(x0, x0) == x0

    def test_and_distributes_with_cancellation(self):
        # (x0 ^ x1)(x0 ^ x1) = x0 ^ x1, exercising the parity counter.
        s = p_xor(x0, x1)
        assert p_and(s, s) == s

    def test_absorbing_elements(self):
        assert p_and(x0, ZERO) == ZERO
        assert p_and(x0, ONE) == x0
        assert p_xor(x0, ZERO) == x0

    @pytest.mark.parametrize("bits", list(itertools.product((0, 1), repeat=3)))
    def test_evaluate_matches_semantics(self, bits):
        poly = p_xor(p_and(x0, x1), x2, ONE)
        expected = (bits[0] & bits[1]) ^ bits[2] ^ 1
        assert evaluate(poly, bits) == expected

    def test_substitute_composes(self):
        # Substituting x0 := x1^x2 into x0*x1 gives x1*x2 ^ x1.
        poly = p_and(x0, x1)
        result = substitute(poly, {0: p_xor(x1, x2), 1: x1})
        assert result == p_xor(p_and(x1, x2), x1)


class TestTableAnf:
    def test_known_cnot_anf(self):
        # MSB-first: wire 0 is the control.  Output wire 1 = x0 ^ x1.
        outputs = table_anf(library.CNOT.table, 2)
        assert outputs[0] == x0
        assert outputs[1] == p_xor(x0, x1)

    def test_known_toffoli_anf(self):
        outputs = table_anf(library.TOFFOLI.table, 3)
        assert outputs[0] == x0
        assert outputs[1] == x1
        assert outputs[2] == p_xor(p_and(x0, x1), x2)

    @pytest.mark.parametrize("name", sorted(library.REGISTRY))
    def test_anf_reproduces_every_library_table(self, name):
        gate = library.REGISTRY[name]
        outputs = table_anf(gate.table, gate.arity)
        for pattern in range(1 << gate.arity):
            bits = tuple(
                (pattern >> (gate.arity - 1 - i)) & 1
                for i in range(gate.arity)
            )
            image = gate.table[pattern]
            for position in range(gate.arity):
                expected = (image >> (gate.arity - 1 - position)) & 1
                assert evaluate(outputs[position], bits) == expected

    def test_size_mismatch_raises(self):
        with pytest.raises(VerificationError):
            table_anf((0, 1, 2), 2)


def symbolic_outputs(circuit) -> tuple:
    """The circuit's output wires as polynomials in its input wires.

    Wire ``w`` starts as ``x_w``; a gate substitutes its inputs into its
    :func:`table_anf`, a reset makes its wires constants.
    """
    state = [variable(w) for w in range(circuit.n_wires)]
    for op in circuit:
        if op.is_reset:
            for wire in op.wires:
                state[wire] = constant(op.reset_value)
            continue
        inputs = [state[wire] for wire in op.wires]
        outputs = [
            substitute(poly, inputs)
            for poly in table_anf(op.gate.table, op.gate.arity)
        ]
        for wire, poly in zip(op.wires, outputs):
            state[wire] = poly
    return tuple(state)


class TestCircuitEquivalence:
    @pytest.mark.parametrize("name", sorted(DECOMPOSITIONS))
    def test_decompositions_equal_their_gates(self, name):
        decomposition, gate, target_wires = DECOMPOSITIONS[name]
        reference = Circuit(decomposition.n_wires)
        reference.append_gate(gate, *target_wires)
        assert symbolic_outputs(decomposition) == symbolic_outputs(reference)

    def test_detects_inequivalence(self):
        a = Circuit(2).cnot(0, 1)
        b = Circuit(2).cnot(1, 0)
        assert symbolic_outputs(a) != symbolic_outputs(b)

    def test_resets_become_constants(self):
        circuit = Circuit(2).append_reset(1, value=1).cnot(1, 0)
        outputs = symbolic_outputs(circuit)
        assert outputs[0] == p_xor(x0, ONE)
        assert outputs[1] == ONE

    def test_random_circuits_match_permutation_oracle(self):
        # Deterministic pseudo-random gate soup, cross-checked against
        # the exhaustive permutation semantics wire by wire.
        n = 4
        circuit = Circuit(n)
        gates = [library.CNOT, library.TOFFOLI, library.X, library.SWAP]
        state = 0x2545F491
        for _ in range(24):
            state = (state * 6364136223846793005 + 1442695040888963407) % (
                1 << 64
            )
            gate = gates[state % len(gates)]
            wires = []
            pick = state >> 8
            while len(wires) < gate.arity:
                wire = pick % n
                pick //= n
                if wire not in wires:
                    wires.append(wire)
            circuit.append_gate(gate, *wires)
        outputs = symbolic_outputs(circuit)
        mapping = circuit_permutation(circuit)
        for pattern in range(1 << n):
            bits = tuple((pattern >> (n - 1 - i)) & 1 for i in range(n))
            image = mapping[pattern]
            for position in range(n):
                expected = (image >> (n - 1 - position)) & 1
                assert evaluate(outputs[position], bits) == expected
