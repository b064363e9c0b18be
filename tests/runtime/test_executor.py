"""Executor equivalence properties.

The load-bearing guarantees of the execution layer are proved here:

1. a single-point ``Executor.run`` is bit-identical to
   ``NoisyRunner``;
2. a multi-point stacked run is bit-identical, point by point, to
   running each spec alone — batching is an execution detail, never a
   statistical one (including points with non-word-aligned trial
   counts, which exercise the padding masks, down to a single trial);
3. pooled execution across groups returns exactly the serial results,
   in spec order.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.coding.concatenation import recovery_circuit
from repro.coding.logical import LogicalProcessor
from repro.coding.recovery import OUTPUT_WIRES
from repro.core import library
from repro.core.circuit import Circuit
from repro.errors import SimulationError
from repro.noise.model import NoiseModel
from repro.noise.monte_carlo import NoisyRunner
from repro.runtime.executor import Executor
from repro.runtime.spec import (
    DecodeObservable,
    ExecutionPolicy,
    MajorityMismatchObservable,
    PointResult,
    PredicateObservable,
    RunSpec,
    WireMismatchObservable,
)

REPETITION_OBSERVABLE = MajorityMismatchObservable((0, 1, 2), 1)

#: Decodes the recovery cycle's actual output wires: zero failures
#: without noise.
OUTPUT_OBSERVABLE = MajorityMismatchObservable(OUTPUT_WIRES, 1)


def output_majority_fails(states):
    """Module-level predicate: the cycle's output majority is not 1."""
    return states.majority_of(OUTPUT_WIRES) != 1


def solo_failures(spec):
    """The spec's failure count on a solo ``NoisyRunner`` run."""
    runner = NoisyRunner(spec.noise, spec.seed)
    run = runner.run_from_input(spec.circuit, spec.input_bits, spec.trials)
    return run.states.count_ones(spec.observable.failure_plane(run.states))


def recovery_spec(gate_error, seed, trials, observable=REPETITION_OBSERVABLE):
    return RunSpec(
        circuit=recovery_circuit(),
        input_bits=(1, 1, 1) + (0,) * 6,
        observable=observable,
        noise=NoiseModel(gate_error=gate_error),
        trials=trials,
        seed=seed,
    )


def legacy_point(spec):
    """Ground truth: the classic single-point runner on one spec."""
    runner = NoisyRunner(spec.noise, spec.seed)
    result = runner.run_from_input(spec.circuit, spec.input_bits, spec.trials)
    return PointResult(
        failures=result.states.count_ones(
            spec.observable.failure_plane(result.states)
        ),
        trials=spec.trials,
        faulted_trials=int((result.fault_counts > 0).sum()),
    )


class TestSinglePointBitIdentity:
    def test_matches_legacy_runner(self):
        spec = recovery_spec(0.01, seed=11, trials=1000)
        assert Executor(ExecutionPolicy()).run([spec]) == [legacy_point(spec)]


class TestStackedBatchingBitIdentity:
    def test_stacked_points_equal_solo_runs(self):
        # Five noise levels, one shared circuit: ONE stacked plane
        # array must reproduce five solo runs bit for bit.
        specs = [
            recovery_spec(g, seed, 2000)
            for seed, g in enumerate((0.002, 0.005, 0.01, 0.03, 0.08))
        ]
        results = Executor(ExecutionPolicy()).run(specs)
        for spec, result in zip(specs, results):
            assert result == legacy_point(spec)

    def test_unaligned_trial_counts_are_window_exact(self):
        # Trials that are not multiples of 64 give each point a padded
        # window; the padding masks must keep every point solo-exact.
        # Word-boundary batch sizes, from a single trial up to the
        # default budget, ride in the same stack at g = 0.01 and g = 0.
        # The observable reads the cycle's output wires, so a noiseless
        # point must count zero failures.
        edges = (1, 63, 64, 65, 255, 256, 100_000)
        points = [(0.02, 31, 777), (0.04, 32, 1000)] + [
            (g, seed, trials)
            for g in (0.01, 0.0)
            for seed, trials in enumerate(edges, start=101)
        ]
        specs = [
            recovery_spec(g, seed, trials, observable=OUTPUT_OBSERVABLE)
            for g, seed, trials in points
        ]
        results = Executor(ExecutionPolicy()).run(specs)
        for spec, result in zip(specs, results):
            assert result == legacy_point(spec)
            assert result.faulted_trials <= result.trials == spec.trials
            if spec.noise.gate_error == 0.0:
                assert result.failures == result.faulted_trials == 0

    def test_results_come_back_in_spec_order_across_groups(self):
        maj_circuit = Circuit(3, name="maj").maj(0, 1, 2)
        maj_spec = RunSpec(
            circuit=maj_circuit,
            input_bits=(1, 0, 1),
            observable=MajorityMismatchObservable((0, 1, 2), 1),
            noise=NoiseModel(gate_error=0.05),
            trials=1500,
            seed=41,
        )
        interleaved = [
            recovery_spec(0.01, 42, 1500),
            maj_spec,
            recovery_spec(0.03, 43, 1500),
        ]
        results = Executor(ExecutionPolicy()).run(interleaved)
        for spec, result in zip(interleaved, results):
            assert result.failures == solo_failures(spec)

    def test_mixed_arity_stacked_points_equal_solo_runs(self):
        # 1-, 2- and 3-wire groups in both error classes: the padded
        # op -> wire table must scatter each cell on its own arity.
        circuit = Circuit(9, name="mixed").append_reset(0)
        circuit.cnot(1, 2).toffoli(3, 4, 5).maj(6, 7, 8)
        circuit = circuit + recovery_circuit()
        specs = [
            RunSpec(
                circuit=circuit,
                input_bits=(1, 1, 1) + (0,) * 6,
                observable=REPETITION_OBSERVABLE,
                noise=NoiseModel(gate_error=g, reset_error=g / 3),
                trials=trials,
                seed=seed,
            )
            for seed, (g, trials) in enumerate(
                ((0.01, 1000), (0.04, 130), (0.3, 257)), start=81
            )
        ]
        results = Executor(ExecutionPolicy()).run(specs)
        for spec, result in zip(specs, results):
            assert result == legacy_point(spec)

    def test_clustered_decode_with_unaligned_windows(self):
        # Three specs share ONE DecodeObservable (decoded by a single
        # stacked failure-plane pass) while a fourth carries its own —
        # every count must still equal its solo run, including the
        # non-word-aligned windows.
        processor = LogicalProcessor(3, include_resets=True)
        processor.apply(library.MAJ, 0, 1, 2)
        physical = processor.physical_input((1, 0, 1))
        shared = DecodeObservable(processor, (1, 0, 1))
        lone = DecodeObservable(processor, (1, 0, 0))
        specs = [
            RunSpec(
                circuit=processor.circuit,
                input_bits=physical,
                observable=observable,
                noise=NoiseModel(gate_error=g),
                trials=trials,
                seed=seed,
            )
            for seed, (g, trials, observable) in enumerate(
                (
                    (0.01, 777, shared),
                    (0.03, 1000, lone),
                    (0.05, 65, shared),
                    (0.02, 2000, shared),
                ),
                start=71,
            )
        ]
        results = Executor(ExecutionPolicy()).run(specs)
        for spec, result in zip(specs, results):
            assert result.failures == solo_failures(spec)

    def test_mixed_observables_share_one_group(self):
        # One group mixes a predicate, a packed wire comparison and a
        # shared decode over unaligned windows.  Every distinct
        # observable computes one plane over the span of its points'
        # windows (the predicate's span covers the others' windows),
        # and each count must equal the solo run's.
        processor = LogicalProcessor(3, include_resets=True)
        processor.apply(library.MAJ, 0, 1, 2)
        physical = processor.physical_input((1, 0, 1))
        predicate = PredicateObservable(output_majority_fails)
        wires = WireMismatchObservable(OUTPUT_WIRES, (1, 1, 1))
        shared = DecodeObservable(processor, (1, 0, 1))
        points = (
            (predicate, 1), (shared, 63), (wires, 65), (predicate, 777),
            (shared, 1), (wires, 63), (predicate, 65), (shared, 777),
        )
        specs = [
            RunSpec(
                circuit=processor.circuit,
                input_bits=physical,
                observable=observable,
                noise=NoiseModel(gate_error=0.03),
                trials=trials,
                seed=seed,
            )
            for seed, (observable, trials) in enumerate(points, start=91)
        ]
        results = Executor(ExecutionPolicy()).run(specs)
        failures = [result.failures for result in results]
        assert failures == [solo_failures(spec) for spec in specs]
        assert sum(failures) > 0

    def test_decode_observable_on_stacked_windows(self):
        # The packed decode path must read each point's plane window
        # correctly (views are non-contiguous slices of the big array).
        processor = LogicalProcessor(3, include_resets=True)
        processor.apply(library.MAJ, 0, 1, 2)
        processor.apply(library.MAJ_INV, 0, 1, 2)
        physical = processor.physical_input((1, 0, 1))
        observable = DecodeObservable(processor, (1, 0, 1))
        specs = [
            RunSpec(
                circuit=processor.circuit,
                input_bits=physical,
                observable=observable,
                noise=NoiseModel(gate_error=g),
                trials=3000,
                seed=seed,
            )
            for seed, g in enumerate((0.005, 0.02), start=61)
        ]
        results = Executor(ExecutionPolicy()).run(specs)
        for spec, result in zip(specs, results):
            assert result.failures == solo_failures(spec)


class TestContentGrouping:
    """Grouping keys on circuit content, not object identity."""

    def test_content_equal_circuits_share_a_group(self):
        from repro.runtime.executor import _group_key

        left = recovery_spec(0.01, 1, 1000)
        right = recovery_spec(0.02, 2, 1000)
        assert left.circuit is not right.circuit
        assert _group_key(left) == _group_key(right)

    def test_synthesised_twin_is_bit_identical_to_its_reference(self):
        # A circuit rebuilt op for op (the synthesis/peephole output
        # case) joins the reference's stacked group and, with the same
        # seed, must reproduce its numbers exactly.
        twin = recovery_circuit().copy(name="optimised-EL")
        specs = [
            recovery_spec(0.02, seed=5, trials=1234),
            RunSpec(
                circuit=twin,
                input_bits=(1, 1, 1) + (0,) * 6,
                observable=REPETITION_OBSERVABLE,
                noise=NoiseModel(gate_error=0.02),
                trials=1234,
                seed=5,
            ),
        ]
        reference, synthesised = Executor(
            ExecutionPolicy()
        ).run(specs)
        assert reference == synthesised

    def test_different_content_keeps_separate_groups(self):
        from repro.runtime.executor import _group_key

        base = recovery_spec(0.01, 1, 1000)
        other = RunSpec(
            circuit=recovery_circuit(include_resets=False),
            input_bits=(1, 1, 1) + (0,) * 6,
            observable=REPETITION_OBSERVABLE,
            noise=NoiseModel(gate_error=0.01),
            trials=1000,
            seed=1,
        )
        assert _group_key(base) != _group_key(other)


class TestPoolAcrossGroups:
    def test_parallel_groups_equal_serial(self):
        specs = [
            recovery_spec(0.01, 71, 1024),
            RunSpec(
                circuit=Circuit(3, name="maj").maj(0, 1, 2),
                input_bits=(1, 0, 1),
                observable=REPETITION_OBSERVABLE,
                noise=NoiseModel(gate_error=0.05),
                trials=1024,
                seed=72,
            ),
        ]
        serial = Executor(ExecutionPolicy()).run(specs)
        pooled = Executor(
            ExecutionPolicy(parallel=2)
        ).run(specs)
        assert serial == pooled

    def test_worker_failure_names_the_group(self):
        class Boom:
            def failure_plane(self, states):
                raise ValueError("observable exploded")

        specs = [
            RunSpec(
                circuit=Circuit(2, name="left").cnot(0, 1),
                input_bits=(1, 0),
                observable=Boom(),
                noise=NoiseModel(gate_error=0.0),
                trials=300,
                seed=1,
            ),
            RunSpec(
                circuit=Circuit(2, name="right").cnot(1, 0),
                input_bits=(1, 0),
                observable=Boom(),
                noise=NoiseModel(gate_error=0.0),
                trials=300,
                seed=2,
            ),
        ]
        with pytest.raises(SimulationError, match="left|right"):
            Executor(ExecutionPolicy(parallel=2)).run(specs)

    def test_failed_pooled_run_tears_the_pool_down(self):
        # Regression: the fail-fast error path used
        # shutdown(cancel_futures=True), which swaps the pool manager
        # thread's pending-work dict while the queue feeder still pops
        # from the old one; a task that fails to pickle mid-flight
        # (like the test-local observable above) then leaves the
        # manager thread waiting forever, and the orphan deadlocks
        # interpreter exit.  After the error surfaces, every pool
        # thread must be joined.
        import concurrent.futures.process as cfp

        class Boom:
            def failure_plane(self, states):
                raise ValueError("observable exploded")

        specs = [
            RunSpec(
                circuit=Circuit(2, name="left").cnot(0, 1),
                input_bits=(1, 0),
                observable=Boom(),
                noise=NoiseModel(gate_error=0.0),
                trials=300,
                seed=1,
            ),
            RunSpec(
                circuit=Circuit(2, name="right").cnot(1, 0),
                input_bits=(1, 0),
                observable=Boom(),
                noise=NoiseModel(gate_error=0.0),
                trials=300,
                seed=2,
            ),
        ]
        with pytest.raises(SimulationError):
            Executor(ExecutionPolicy(parallel=2)).run(specs)
        lingering = [t for t in cfp._threads_wakeups if t.is_alive()]
        assert lingering == []


class TestExecutorSurface:
    def test_empty_run(self):
        assert Executor().run([]) == []

    def test_empty_run_fast_path_under_parallel_policy(self):
        # Regression: the empty batch returns before grouping and
        # worker resolution — the caching executor and the shard
        # runner routinely produce all-cached (empty) batches, which
        # must not pay pool startup.
        assert Executor(ExecutionPolicy(parallel=64)).run([]) == []

    def test_non_spec_rejected(self):
        with pytest.raises(SimulationError):
            Executor().run(["not a spec"])

    @pytest.mark.parametrize(
        "plane",
        [None, np.zeros(3, np.uint64), np.zeros(2, np.uint8), [0, 0]],
        ids=["none", "too-long", "bytes", "list"],
    )
    def test_misshapen_failure_plane_refused(self, plane):
        # A wrong plane would be sliced and counted silently; the
        # executor refuses anything but one uint64 word per window word.
        class Misshapen:
            def failure_plane(self, states):
                return plane

        spec = recovery_spec(0.0, seed=1, trials=100, observable=Misshapen())
        with pytest.raises(SimulationError, match=r"\(2,\) uint64 plane"):
            Executor(ExecutionPolicy()).run([spec])

    def test_measure_cycle_errors_batches_points(self):
        # The harness-level sweep API: many points, one stacked run,
        # each point equal to measuring it alone.
        from repro.harness.threshold_finder import measure_cycle_errors

        points = tuple((g, seed) for seed, g in enumerate((2e-3, 8e-3, 0.03)))
        batched = measure_cycle_errors(points, trials=4000)
        for (g, seed), (rate, failures) in zip(points, batched):
            solo = measure_cycle_errors(((g, seed),), trials=4000)[0]
            assert solo == (rate, failures)
