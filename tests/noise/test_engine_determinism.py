"""Determinism regression for the Monte-Carlo engine.

Three guarantees are pinned here:

1. ``NoisyRunner(seed=k)`` is bit-identical across runs — same
   ``fault_counts``, same final states.
2. The exact RNG stream is frozen by SHA-256 digests (per-error-class
   geometric draws + one flat block of replacement words per point),
   so any change to the stream — reordering draws, changing the fault
   sampler, resizing a batch draw — breaks the digest and must be
   called out as a breaking change to reproducibility, since published
   experiment numbers are seed-dependent.
3. The compile cache is invisible to results: cache-miss and cache-hit
   runs produce identical digests — the cache only skips redundant
   lowering, never changes what executes.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.coding.concatenation import recovery_circuit
from repro.coding.recovery import OUTPUT_WIRES
from repro.core.circuit import Circuit
from repro.backends import get_backend
from repro.core.compiled import clear_compile_cache, compile_circuit
from repro.harness.threshold_finder import cycle_error_specs
from repro.noise.model import NoiseModel
from repro.noise.monte_carlo import NoisyRunner
from repro.runtime.executor import Executor
from repro.runtime.spec import (
    ExecutionPolicy,
    MajorityMismatchObservable,
    RunSpec,
)
from repro.synth.peephole import inflate
from tests.conftest import CounterDeltas

#: Frozen stream digests for the reference run below.  If an
#: intentional RNG-stream change lands, re-record these and flag the
#: break in CHANGES.md.
EXPECTED_DIGESTS = {
    "bitplane": "ce115c34cea8959e6de21dda74fe1cf4cb39830ac1803452e1367fb39de8e108",
}


#: The mixed-arity stream: a 1-wire reset, CNOT, Toffoli and MAJ, then
#: slots with interleaved groups, in front of an inflated recovery
#: cycle, so one circuit carries gate and reset groups of arities 1, 2
#: and 3.  ``runner`` hashes a solo
#: ``NoisyRunner`` run (fault counts and final states), ``executor``
#: one three-point stacked ``Executor.run`` (failures and faulted
#: trials per point).
MIXED_ARITY_DIGESTS = {
    "runner": "5d86e48710db6148c0f0a2e0c437d07a072352800e807a8714dc0a93857ee513",
    "executor": "769cc23be47840e35189a6a6fb5d79693e98e16d8022fcc3f950d9480295bd3a",
}


#: The dense regime (``g >= DENSE_PROBABILITY``, one thresholded
#: uniform per virtual trial) on the mc-threshold cycle circuit, where
#: nearly every (op, word) segment holds a fault: ``executor`` hashes a
#: three-point stacked ``Executor.run`` at g 0.25, 0.3 and 0.5,
#: ``runner`` a solo ``NoisyRunner`` run at g 0.3.
DENSE_DIGESTS = {
    "runner": "3765679923b3a806cb2d773d9f1f071634288838abe443a7a732b9f82c5fe3db",
    "executor": "081773c340b01bdaa7d596111560a6dc5b5c99eb305cff678b74a2f86da282f8",
}


@pytest.fixture(autouse=True)
def _fresh_compile_cache():
    # Every digest test starts from a cold compile cache, so the
    # cache-miss leg of the invariance test really misses.
    clear_compile_cache()
    yield
    clear_compile_cache()


def reference_run(seed: int = 2026):
    runner = NoisyRunner(NoiseModel(gate_error=0.01), seed=seed)
    return runner.run_from_input(recovery_circuit(), (1, 1, 1) + (0,) * 6, 1000)


def run_digest(result) -> str:
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(result.fault_counts).tobytes())
    digest.update(np.ascontiguousarray(result.states.array).tobytes())
    return digest.hexdigest()


class TestDeterminism:
    def test_reruns_are_bit_identical(self):
        first = reference_run()
        second = reference_run()
        np.testing.assert_array_equal(first.fault_counts, second.fault_counts)
        np.testing.assert_array_equal(first.states.array, second.states.array)

    def test_different_seeds_differ(self):
        assert run_digest(reference_run()) != run_digest(
            reference_run(seed=2027)
        )

    def test_stream_digest_is_frozen(self):
        assert run_digest(reference_run()) == EXPECTED_DIGESTS["bitplane"]

    def test_shared_generator_advances(self):
        # Passing one Generator through two runs must consume it, so
        # consecutive runs differ (no hidden reseeding).
        rng = np.random.default_rng(5)
        runner = NoisyRunner(NoiseModel(gate_error=0.05), seed=rng)
        circuit = recovery_circuit()
        first = runner.run_from_input(circuit, (1, 1, 1) + (0,) * 6, 2000)
        first_counts = first.fault_counts.copy()
        second = runner.run_from_input(circuit, (1, 1, 1) + (0,) * 6, 2000)
        assert not np.array_equal(first_counts, second.fault_counts)


@pytest.mark.parametrize("backend", ["numpy"])
def test_backend_stream_digest_is_frozen(backend):
    # The backend applies programs and scatters pre-drawn faults; it
    # never touches the RNG.  Preparing the program through
    # ``get_backend`` ahead of the run (so the runner reuses that warm
    # program) reproduces the same frozen bitplane digest.
    compiled = compile_circuit(recovery_circuit())
    prepared = get_backend(backend).prepare(compiled)
    result = reference_run()
    assert run_digest(result) == EXPECTED_DIGESTS["bitplane"]


def mixed_arity_circuit() -> Circuit:
    head = Circuit(9, name="mixed-arity").append_reset(0)
    head.cnot(1, 2).toffoli(3, 4, 5).maj(6, 7, 8)
    # Slots whose groups interleave (CNOT, X, CNOT, X and 1-, 2-, 1-wire
    # resets), so sites must be regrouped by cell before scattering.
    head.cnot(0, 1).x(2).cnot(3, 4).x(5)
    head.append_reset(6).append_reset(7, 8).append_reset(0)
    return head + inflate(recovery_circuit())


def mixed_arity_runner_digest() -> str:
    runner = NoisyRunner(
        NoiseModel(gate_error=0.02, reset_error=0.01), seed=2026
    )
    result = runner.run_from_input(
        mixed_arity_circuit(), (1, 1, 1) + (0,) * 6, 1000
    )
    return run_digest(result)


def mixed_arity_executor_digest() -> str:
    observable = MajorityMismatchObservable(OUTPUT_WIRES, 1)
    specs = [
        RunSpec(
            circuit=mixed_arity_circuit(),
            input_bits=(1, 1, 1) + (0,) * 6,
            observable=observable,
            noise=NoiseModel(gate_error=g, reset_error=g / 2),
            trials=trials,
            seed=seed,
        )
        for seed, (g, trials) in enumerate(
            ((0.005, 1000), (0.02, 777), (0.05, 65)), start=31
        )
    ]
    results = Executor(ExecutionPolicy()).run(specs)
    digest = hashlib.sha256()
    for result in results:
        digest.update(f"{result.failures},{result.faulted_trials};".encode())
    return digest.hexdigest()


def test_mixed_arity_stream_digest_is_frozen():
    # The uniform-arity recovery circuit above never leaves the
    # merged-class fault path; this circuit mixes arities 1-3 in both
    # error classes, pinning the stream for every other circuit shape.
    assert mixed_arity_runner_digest() == MIXED_ARITY_DIGESTS["runner"]
    assert mixed_arity_executor_digest() == MIXED_ARITY_DIGESTS["executor"]


def dense_runner_digest() -> str:
    (spec,) = cycle_error_specs(((0.3, 2026),), 777)
    runner = NoisyRunner(spec.noise, seed=spec.seed)
    return run_digest(
        runner.run_from_input(spec.circuit, spec.input_bits, spec.trials)
    )


def dense_executor_digest() -> str:
    specs = [
        spec
        for g, trials, seed in ((0.25, 1000, 41), (0.3, 777, 42), (0.5, 65, 43))
        for spec in cycle_error_specs(((g, seed),), trials)
    ]
    results = Executor(ExecutionPolicy()).run(specs)
    digest = hashlib.sha256()
    for result in results:
        digest.update(f"{result.failures},{result.faulted_trials};".encode())
    return digest.hexdigest()


def test_dense_stream_digest_is_frozen():
    # Every other digest draws in the sparse regime; this one pins the
    # site table where nearly every (op, word) segment is faulted.
    assert dense_runner_digest() == DENSE_DIGESTS["runner"]
    assert dense_executor_digest() == DENSE_DIGESTS["executor"]


def test_compile_cache_is_result_invariant():
    # Cache-miss and cache-hit runs must be digest-identical.
    counts = CounterDeltas()
    cold = run_digest(reference_run())
    assert counts["compile.cache.miss"] >= 1
    counts = CounterDeltas()
    warm = run_digest(reference_run())
    assert counts["compile.cache.hit"] >= 1
    assert cold == warm == EXPECTED_DIGESTS["bitplane"]
