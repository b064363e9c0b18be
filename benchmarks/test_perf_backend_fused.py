"""Perf row: the bit-plane slot walk on an apply-dominated workload.

Three noiseless Figure-2 recovery cycles over a 100k-trial batch: the
whole cost is :meth:`repro.backends.PreparedProgram.run`, with no
fault bookkeeping.  (The file keeps its name from when a second,
fused-kernel backend was timed beside this one.)

The end-to-end timing lives in the repository benchmark (the
``sweep-sparse`` workload of ``BENCHMARK.json``).
"""

from __future__ import annotations

import numpy as np

from repro.backends import prepare
from repro.coding import recovery_circuit
from repro.core.bitplane import BitplaneState
from repro.core.compiled import compile_circuit

TRIALS = 100_000
RECOVERY_INPUT = (1, 1, 1) + (0,) * 6
CYCLES = 3


def _cycle_circuit():
    circuit = recovery_circuit()
    for _ in range(CYCLES - 1):
        circuit = circuit + recovery_circuit()
    return circuit


def _run(compiled):
    return prepare(compiled).run(BitplaneState.broadcast(RECOVERY_INPUT, TRIALS))


def test_perf_backend_numpy_recovery_cycles(benchmark):
    compiled = compile_circuit(_cycle_circuit())
    state = benchmark(lambda: _run(compiled))
    assert int(state.column(0).sum(dtype=np.int64)) == TRIALS
