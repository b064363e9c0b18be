"""Correctness of the recovery workloads at full batch size.

Each case runs a Figure-2 recovery or a level-2 logical gate over a
batch of the size the repository benchmark uses, and checks the
outcome: a noiseless run keeps the codeword on every trial, and a
noisy run at g = 1e-3 stays almost always correct, also when the
batch is packed from a byte-per-bit ``BatchedState``.  Their timing is
the benchmark's business (``perfbench/``), not these tests'.
"""

from __future__ import annotations

import numpy as np

from repro.coding import recovery_circuit
from repro.coding.concatenation import ConcatenatedComputation
from repro.core import MAJ
from repro.core.bitplane import BitplaneState
from repro.core.compiled import CompiledCircuit, compile_circuit
from repro.core.simulator import BatchedState, run_batched
from repro.noise import NoiseModel, NoisyRunner
from tests.conftest import reference_decode_failures

TRIALS = 100_000
RECOVERY_INPUT = (1, 1, 1) + (0,) * 6


def test_noiseless_batched_recovery_keeps_codeword():
    batch = BatchedState.broadcast(RECOVERY_INPUT, trials=TRIALS)
    run_batched(recovery_circuit(), batch)
    assert int(batch.array[:, 0].sum()) == TRIALS


def test_noiseless_compiled_recovery_keeps_codeword():
    batch = BitplaneState.broadcast(RECOVERY_INPUT, TRIALS)
    CompiledCircuit(recovery_circuit()).run(batch)
    assert int(batch.column(0).sum(dtype=np.int64)) == TRIALS


def test_slot_walk_keeps_codeword_over_three_cycles():
    circuit = recovery_circuit() + recovery_circuit() + recovery_circuit()
    state = compile_circuit(circuit).run(
        BitplaneState.broadcast(RECOVERY_INPUT, TRIALS)
    )
    assert int(state.column(0).sum(dtype=np.int64)) == TRIALS


def test_noisy_recovery_survives_at_g_1e_3():
    runner = NoisyRunner(NoiseModel(gate_error=1e-3), seed=0)
    result = runner.run_from_input(recovery_circuit(), RECOVERY_INPUT, TRIALS)
    survived = int(result.states.majority_of((0, 3, 6)).sum(dtype=np.int64))
    assert survived > 99_000


def _level_two_maj():
    computation = ConcatenatedComputation(3, 2)
    physical = computation.physical_input((1, 0, 1))
    computation.apply(MAJ, 0, 1, 2)
    return computation, physical


def _correct_trials(computation, states):
    failures = reference_decode_failures(computation, states, MAJ.apply((1, 0, 1)))
    return states.trials - failures


def test_noisy_level_two_gate_mostly_correct():
    computation, physical = _level_two_maj()
    runner = NoisyRunner(NoiseModel(gate_error=1e-3), seed=1)
    result = runner.run_from_input(computation.circuit, physical, 5000)
    assert _correct_trials(computation, result.states) > 4950


def test_noisy_level_two_gate_from_batched_mostly_correct():
    computation, physical = _level_two_maj()
    states = BitplaneState.from_batched(BatchedState.broadcast(physical, 5000))
    runner = NoisyRunner(NoiseModel(gate_error=1e-3), seed=1)
    result = runner.run(computation.circuit, states)
    assert _correct_trials(computation, result.states) > 4950
