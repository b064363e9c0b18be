"""Perf rows: fused backend vs the numpy backend.

The fused backend compiles each slot schedule into a chain of prebuilt
kernels (shared-subexpression extraction, preallocated scratch, one
traversal per slot) instead of interpreting plane programs
term-by-term.  The workload here is apply-dominated — three noiseless
Figure-2 recovery cycles over a 100k-trial batch — because that is
what the backend seam accelerates; noisy runs spend most of their time
in fault bookkeeping that is identical across backends.

The speed comparison lives in the repository benchmark (the
``sweep-sparse`` workload of ``BENCHMARK.json``); bit-identity of the
fused planes to the numpy planes is asserted by the backend
conformance suite (``tests/backends/``).
"""

from __future__ import annotations

import numpy as np

from repro.backends import get_backend
from repro.coding import recovery_circuit
from repro.core.compiled import compile_circuit

TRIALS = 100_000
RECOVERY_INPUT = (1, 1, 1) + (0,) * 6
CYCLES = 3


def _cycle_circuit():
    circuit = recovery_circuit()
    for _ in range(CYCLES - 1):
        circuit = circuit + recovery_circuit()
    return circuit


def _run_backend(name, compiled):
    backend = get_backend(name)
    prepared = backend.prepare(compiled)
    state = backend.broadcast(RECOVERY_INPUT, TRIALS)
    prepared.run(state)
    return state


def test_perf_backend_numpy_recovery_cycles(benchmark):
    compiled = compile_circuit(_cycle_circuit())
    state = benchmark(lambda: _run_backend("numpy", compiled))
    assert int(state.column(0).sum(dtype=np.int64)) == TRIALS


def test_perf_backend_fused_recovery_cycles(benchmark):
    compiled = compile_circuit(_cycle_circuit())
    state = benchmark(lambda: _run_backend("fused", compiled))
    assert int(state.column(0).sum(dtype=np.int64)) == TRIALS

