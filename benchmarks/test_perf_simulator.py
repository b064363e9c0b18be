"""Performance benches for the simulation substrate itself.

These do not reproduce paper artefacts; they keep the engine honest so
the Monte-Carlo experiments stay fast enough to be rerun casually.
"""

from __future__ import annotations

import numpy as np

from repro.coding import recovery_circuit
from repro.coding.concatenation import concatenated_gate_circuit
from repro.core import MAJ
from repro.core.simulator import BatchedState, run_batched
from repro.noise import NoiseModel, NoisyRunner


def test_perf_batched_recovery_cycle(benchmark):
    """Noiseless Figure-2 recovery over a 100k-trial batch."""
    circuit = recovery_circuit()

    def cycle():
        batch = BatchedState.broadcast((1, 1, 1) + (0,) * 6, trials=100_000)
        run_batched(circuit, batch)
        return int(batch.array[:, 0].sum())

    result = benchmark(cycle)
    assert result == 100_000


def test_perf_level2_compile(benchmark):
    """Compiling a full level-2 logical gate (441 gates, 243 wires)."""

    def compile_gate():
        circuit, _ = concatenated_gate_circuit(MAJ, 2)
        return len(circuit)

    ops = benchmark(compile_gate)
    assert ops == 441 + 180


def test_perf_level2_noisy_gate(benchmark):
    """One noisy level-2 logical MAJ over a 5k-trial batch."""
    from repro.coding.concatenation import ConcatenatedComputation

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
