"""Perf rows for the bit-plane engine.

Noiseless and noisy Figure-2 recovery over 100k trials and a level-2
noisy logical gate on the :class:`~repro.core.bitplane.BitplaneState`
engine.  End-to-end
speed is tracked by the ``sweep-sparse`` workload of the repository
benchmark (``perfbench/``).
"""

from __future__ import annotations

import numpy as np

from repro.coding import recovery_circuit
from repro.coding.concatenation import ConcatenatedComputation
from repro.core import MAJ
from repro.core.bitplane import BitplaneState
from repro.core.compiled import CompiledCircuit
from repro.noise import NoiseModel, NoisyRunner

TRIALS = 100_000
RECOVERY_INPUT = (1, 1, 1) + (0,) * 6


def test_perf_bitplane_recovery_cycle(benchmark):
    """Noiseless Figure-2 recovery over a 100k-trial bit-plane batch."""
    compiled = CompiledCircuit(recovery_circuit())

    def cycle():
        batch = BitplaneState.broadcast(RECOVERY_INPUT, TRIALS)
        compiled.run(batch)
        return int(batch.column(0).sum(dtype=np.int64))

    result = benchmark(cycle)
    assert result == TRIALS


def test_perf_bitplane_noisy_recovery_cycle(benchmark):
    """Noisy recovery at g = 1e-3 over a 100k-trial bit-plane batch."""
    circuit = recovery_circuit()

    def cycle():
        runner = NoisyRunner(NoiseModel(gate_error=1e-3), seed=0)
        result = runner.run_from_input(circuit, RECOVERY_INPUT, TRIALS)
        return int(result.states.majority_of((0, 3, 6)).sum(dtype=np.int64))

    survived = benchmark(cycle)
    assert survived > 99_000


def test_perf_bitplane_level2_noisy_gate(benchmark):
    """One noisy level-2 logical MAJ over a 5k-trial bit-plane batch."""

    def simulate():
        computation = ConcatenatedComputation(3, 2)
        physical = computation.physical_input((1, 0, 1))
        computation.apply(MAJ, 0, 1, 2)
        runner = NoisyRunner(NoiseModel(gate_error=1e-3), seed=1)
        result = runner.run_from_input(computation.circuit, physical, 5000)
        decoded = computation.decode_batch(result.states)
        expected = np.asarray(MAJ.apply((1, 0, 1)), dtype=np.uint8)
        return int((decoded == expected).all(axis=1).sum())

    correct = benchmark.pedantic(simulate, rounds=1, iterations=1)
    assert correct > 4950
