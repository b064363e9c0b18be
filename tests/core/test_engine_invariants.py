"""Invariant-based property tests for the bit-plane engine and ``run``.

Conservative gates (Fredkin-style ops: SWAP, FREDKIN, and the SWAP3
rotations) permute bits without creating or destroying ones, so any
circuit built from them must preserve the per-trial Hamming weight —
and a fortiori the parity — of every state.  The MAJ network interior
(a MAJ immediately undone by MAJ⁻¹, the shape of every recovery
decode/encode block) is the identity, so it must restore states
exactly.  These invariants hold with zero tolerance and serve as
noise-free oracles for both the bit-plane engine and the per-trial
reference :func:`repro.core.simulator.run`: a lowering bug that
survives the differential suite by luck still has to conserve weight
here.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import BitplaneState, compile_circuit
from repro.core.circuit import Circuit
from repro.core.library import FREDKIN, MAJ, MAJ_INV, SWAP, SWAP3_DOWN, SWAP3_UP, X
from repro.noise import NoiseModel, NoisyRunner
from tests.conftest import reference_outputs

#: Conservative (weight-preserving) gates of the library.
CONSERVATIVE_GATES = (SWAP, FREDKIN, SWAP3_DOWN, SWAP3_UP)


def random_conservative_circuit(
    rng: np.random.Generator, n_wires: int, n_ops: int
) -> Circuit:
    circuit = Circuit(n_wires)
    for _ in range(n_ops):
        gate = CONSERVATIVE_GATES[int(rng.integers(len(CONSERVATIVE_GATES)))]
        wires = rng.choice(n_wires, size=gate.arity, replace=False)
        circuit.append_gate(gate, *(int(w) for w in wires))
    return circuit


def random_batch(rng: np.random.Generator, trials: int, n_wires: int) -> np.ndarray:
    return rng.integers(0, 2, size=(trials, n_wires), dtype=np.uint8)


class TestHammingWeightInvariant:
    @pytest.mark.parametrize("n_wires", [3, 6, 9])
    def test_conservative_circuits_preserve_weight(self, n_wires):
        rng = np.random.default_rng(8000 + n_wires)
        for _ in range(4):
            circuit = random_conservative_circuit(rng, n_wires, n_ops=30)
            rows = random_batch(rng, 200, n_wires)
            weights = rows.sum(axis=1)

            reference = reference_outputs(circuit, rows)
            bitplane = compile_circuit(circuit).run(BitplaneState.from_rows(rows))
            np.testing.assert_array_equal(reference.sum(axis=1), weights)
            np.testing.assert_array_equal(bitplane.array.sum(axis=1), weights)

    def test_weight_invariant_survives_noiseless_runner(self):
        # The same oracle through the Monte-Carlo layer: with zero
        # noise, NoisyRunner must conserve weight.
        rng = np.random.default_rng(8500)
        circuit = random_conservative_circuit(rng, 6, n_ops=25)
        input_bits = (1, 0, 1, 1, 0, 0)
        runner = NoisyRunner(NoiseModel.noiseless(), seed=0)
        result = runner.run_from_input(circuit, input_bits, trials=500)
        assert (result.states.array.sum(axis=1) == 3).all()
        assert not result.fault_counts.any()


class TestParityInvariant:
    def test_parity_tracks_x_count(self):
        # Conservative gates preserve parity; each X flips it.  Random
        # mixtures must land on parity_in ^ (number of X ops mod 2).
        rng = np.random.default_rng(9000)
        n_wires = 7
        for _ in range(6):
            circuit = Circuit(n_wires)
            x_count = 0
            for _ in range(30):
                if rng.random() < 0.3:
                    circuit.append_gate(X, int(rng.integers(n_wires)))
                    x_count += 1
                else:
                    gate = CONSERVATIVE_GATES[
                        int(rng.integers(len(CONSERVATIVE_GATES)))
                    ]
                    wires = rng.choice(n_wires, size=gate.arity, replace=False)
                    circuit.append_gate(gate, *(int(w) for w in wires))
            rows = random_batch(rng, 150, n_wires)
            expected_parity = (rows.sum(axis=1) + x_count) % 2

            reference = reference_outputs(circuit, rows)
            bitplane = compile_circuit(circuit).run(BitplaneState.from_rows(rows))
            np.testing.assert_array_equal(
                reference.sum(axis=1) % 2, expected_parity
            )
            np.testing.assert_array_equal(
                bitplane.array.sum(axis=1) % 2, expected_parity
            )


class TestMajNetworkInterior:
    def test_maj_sandwich_is_identity(self):
        # MAJ immediately undone by MAJ⁻¹ — the interior of every
        # recovery decode/encode block — must restore states exactly.
        rng = np.random.default_rng(9500)
        n_wires = 9
        circuit = Circuit(n_wires)
        for _ in range(12):
            wires = tuple(int(w) for w in rng.choice(n_wires, size=3, replace=False))
            circuit.append_gate(MAJ, *wires)
            circuit.append_gate(MAJ_INV, *wires)
        rows = random_batch(rng, 300, n_wires)

        bitplane = compile_circuit(circuit).run(BitplaneState.from_rows(rows))
        np.testing.assert_array_equal(reference_outputs(circuit, rows), rows)
        np.testing.assert_array_equal(bitplane.array, rows)

    def test_inverse_sandwich_restores_any_gate_soup(self):
        # C followed by C⁻¹ is the identity for any reset-free circuit;
        # with the full library in play this exercises every compiled
        # gate cascade forwards and backwards.
        from repro.core.library import REGISTRY

        gates = [gate for gate in REGISTRY.values() if gate.arity <= 6]
        rng = np.random.default_rng(9900)
        for _ in range(4):
            circuit = Circuit(6)
            for _ in range(20):
                gate = gates[int(rng.integers(len(gates)))]
                wires = rng.choice(6, size=gate.arity, replace=False)
                circuit.append_gate(gate, *(int(w) for w in wires))
            sandwich = circuit + circuit.inverse()
            rows = random_batch(rng, 128, 6)
            bitplane = compile_circuit(sandwich).run(BitplaneState.from_rows(rows))
            np.testing.assert_array_equal(bitplane.array, rows)
            np.testing.assert_array_equal(reference_outputs(sandwich, rows), rows)
