"""Determinism regression for both Monte-Carlo engines.

Three guarantees are pinned here:

1. ``NoisyRunner(seed=k)`` is bit-identical across runs for each
   engine — same ``fault_counts``, same final states.
2. The exact RNG streams are frozen by SHA-256 digests.  The engines
   deliberately consume the generator differently (per-trial uniforms +
   uint8 bits for the batched engine; batched per-error-class geometric
   draws + per-slot word blocks for the fused bitplane engine), so any
   change to either stream — reordering draws, changing the fault
   sampler, resizing a batch draw — breaks the digest and must be
   called out as a breaking change to reproducibility, since published
   experiment numbers are seed-dependent.  ``REPRO_FUSE=0`` runs the
   unfused (one op per slot) program through the same fault kernel;
   its stream is frozen separately.
3. The compile cache is invisible to results: cached and uncached runs
   (``REPRO_COMPILE_CACHE``) produce identical digests — the cache only
   skips redundant lowering, never changes what executes.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.coding import recovery_circuit
from repro.coding.recovery import OUTPUT_WIRES
from repro.core.circuit import Circuit
from repro.core.compiled import clear_compile_cache, compile_cache_stats
from repro.noise import NoiseModel, NoisyRunner, repetition_failure_predicate
from repro.runtime import ExecutionPolicy, Executor, PredicateObservable, RunSpec
from repro.synth import inflate

#: Frozen stream digests for the reference run below.  If an
#: intentional RNG-stream change lands, re-record these and flag the
#: break in CHANGES.md.
EXPECTED_DIGESTS = {
    "batched": "976e2fba10fd010553ec05734b7f9459a65c50d6789b84ca90b5460156f04993",
    "bitplane": "ce115c34cea8959e6de21dda74fe1cf4cb39830ac1803452e1367fb39de8e108",
}

#: The unfused bitplane stream (``REPRO_FUSE=0``: one op per slot,
#: faults drawn by the same kernel as the fused program).
UNFUSED_BITPLANE_DIGEST = (
    "9736337bf22181e671b869574cace92480a44b66b35e713459628112202b7c37"
)


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


@pytest.fixture(autouse=True)
def _fresh_compile_cache():
    # Digest tests toggle compile knobs via the environment; make sure
    # no compiled program built under another configuration leaks in.
    clear_compile_cache()
    yield
    clear_compile_cache()


def reference_run(engine: str, seed: int = 2026, backend: str | None = None):
    runner = NoisyRunner(
        NoiseModel(gate_error=0.01), seed=seed, engine=engine, backend=backend
    )
    return runner.run_from_input(recovery_circuit(), (1, 1, 1) + (0,) * 6, 1000)


def run_digest(result) -> str:
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(result.fault_counts).tobytes())
    digest.update(np.ascontiguousarray(result.states.array).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("engine", ["batched", "bitplane"])
class TestDeterminism:
    def test_reruns_are_bit_identical(self, engine):
        first = reference_run(engine)
        second = reference_run(engine)
        np.testing.assert_array_equal(first.fault_counts, second.fault_counts)
        np.testing.assert_array_equal(first.states.array, second.states.array)

    def test_different_seeds_differ(self, engine):
        assert run_digest(reference_run(engine)) != run_digest(
            reference_run(engine, seed=2027)
        )

    def test_stream_digest_is_frozen(self, engine):
        assert run_digest(reference_run(engine)) == EXPECTED_DIGESTS[engine]

    def test_shared_generator_advances(self, engine):
        # Passing one Generator through two runs must consume it, so
        # consecutive runs differ (no hidden reseeding).
        rng = np.random.default_rng(5)
        runner = NoisyRunner(NoiseModel(gate_error=0.05), seed=rng, engine=engine)
        circuit = recovery_circuit()
        first = runner.run_from_input(circuit, (1, 1, 1) + (0,) * 6, 2000)
        first_counts = first.fault_counts.copy()
        second = runner.run_from_input(circuit, (1, 1, 1) + (0,) * 6, 2000)
        assert not np.array_equal(first_counts, second.fault_counts)


def test_engine_streams_are_distinct():
    # Same seed, different engines: statistically identical, but the
    # realisations must not collide (documents the RNG-stream caveat).
    assert run_digest(reference_run("batched")) != run_digest(
        reference_run("bitplane")
    )


def test_unfused_stream_digest_is_frozen(monkeypatch):
    # REPRO_FUSE=0 changes the schedule (one op per slot), so it has a
    # stream of its own — distinct from the fused one, but just as
    # frozen.
    monkeypatch.setenv("REPRO_FUSE", "0")
    clear_compile_cache()
    assert run_digest(reference_run("bitplane")) == UNFUSED_BITPLANE_DIGEST


@pytest.mark.parametrize("backend", ["numpy", "fused"])
def test_backend_stream_digest_is_frozen(backend):
    # Execution backends apply programs and scatter pre-drawn faults;
    # they never touch the RNG.  Every backend therefore reproduces the
    # *same* frozen bitplane digest — swapping REPRO_BACKEND can never
    # change published numbers.
    result = reference_run("bitplane", backend=backend)
    assert run_digest(result) == EXPECTED_DIGESTS["bitplane"]


def test_backend_choice_is_bit_invariant_across_seeds():
    for seed in (2026, 7, 991):
        numpy_run = reference_run("bitplane", seed=seed, backend="numpy")
        fused_run = reference_run("bitplane", seed=seed, backend="fused")
        np.testing.assert_array_equal(
            numpy_run.fault_counts, fused_run.fault_counts
        )
        np.testing.assert_array_equal(
            numpy_run.states.planes, fused_run.states.planes
        )


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
        NoiseModel(gate_error=0.02, reset_error=0.01), seed=2026,
        engine="bitplane",
    )
    result = runner.run_from_input(
        mixed_arity_circuit(), (1, 1, 1) + (0,) * 6, 1000
    )
    return run_digest(result)


def mixed_arity_executor_digest() -> str:
    observable = PredicateObservable(
        repetition_failure_predicate(OUTPUT_WIRES, 1)
    )
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
    results = Executor(ExecutionPolicy(engine="bitplane")).run(specs)
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


def test_compile_cache_is_result_invariant(monkeypatch):
    # Uncached, cache-miss, and cache-hit runs must be digest-identical.
    monkeypatch.setenv("REPRO_COMPILE_CACHE", "0")
    uncached = run_digest(reference_run("bitplane"))
    monkeypatch.setenv("REPRO_COMPILE_CACHE", "1")
    clear_compile_cache()
    cold = run_digest(reference_run("bitplane"))
    assert compile_cache_stats()["misses"] >= 1
    warm = run_digest(reference_run("bitplane"))
    assert compile_cache_stats()["hits"] >= 1
    assert uncached == cold == warm == EXPECTED_DIGESTS["bitplane"]
