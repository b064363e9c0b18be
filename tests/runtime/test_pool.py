"""The process pool helper: order, width 0, fail-fast, warm compiles, traces.

Every pooled fan-out in ``repro`` (executor groups, job shards) runs
through :func:`repro.runtime.pool.pool_map`, so the pool's behaviours
are pinned here once.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest

from repro.core.circuit import Circuit
from repro.core.compiled import clear_compile_cache, compile_circuit
from repro.errors import AnalysisError
from repro.harness.threshold_finder import cycle_error_specs
from repro.jobs.runner import SweepJob
from repro.noise.model import NoiseModel
from repro.noise.seeds import spawn_seeds
from repro.obs.metrics import reset_metrics
from repro.obs.tracing import (
    disable_tracing,
    enable_tracing,
    flush_trace,
    validate_trace,
)
from repro.runtime.executor import Executor
from repro.runtime.pool import pool_map, resolve_workers
from repro.runtime.spec import (
    ExecutionPolicy,
    MajorityMismatchObservable,
    RunSpec,
)
from tests.conftest import CounterDeltas


def square(x):
    return x * x


def explode_on_three(x):
    if x == 3:
        raise ValueError("point exploded")
    return x * x


def explode_fast_or_sleep(x):
    if x == 0:
        raise ValueError("first point exploded")
    time.sleep(0.4)
    return x


def _compile_probe(circuit):
    """Compile ``circuit`` and report the cache traffic it caused."""
    counts = CounterDeltas()
    compile_circuit(circuit)
    return counts["compile.cache.hit"], counts["compile.cache.miss"]


def run_pool(task, items, width, **options):
    return list(
        pool_map(
            task,
            items,
            width,
            error=AnalysisError,
            label=lambda index: f"item {items[index]!r}",
            **options,
        )
    )


class TestResolveWorkers:
    def test_worker_resolution(self):
        assert resolve_workers(None, 10) == 0
        assert resolve_workers(False, 10) == 0
        assert resolve_workers(0, 10) == 0
        assert resolve_workers(1, 10) == 0
        assert resolve_workers(4, 10) == 4
        assert resolve_workers(4, 2) == 2  # never more workers than items
        assert resolve_workers(4, 1) == 0  # one item runs in-process
        cpus = os.cpu_count() or 1
        assert resolve_workers(True, 3) == (min(cpus, 3) if cpus >= 2 else 0)

    def test_negative_workers_rejected(self):
        with pytest.raises(AnalysisError):
            resolve_workers(-2, 10)


class TestPoolMap:
    def test_pooled_matches_in_process(self):
        values = list(range(8))
        assert run_pool(square, values, 2) == run_pool(square, values, 0)

    def test_pooled_preserves_order(self):
        assert run_pool(square, [5, 3, 1], 2) == [25, 9, 1]

    def test_width_zero_runs_in_process(self):
        # A lambda is not picklable: width 0 must never ship it anywhere.
        assert run_pool(lambda x: x + 1, [41], 0) == [42]

    def test_in_process_failure_propagates_unchanged(self):
        with pytest.raises(ValueError, match="point exploded"):
            run_pool(explode_on_three, [1, 2, 3, 4], 0)

    def test_pooled_failure_names_the_item(self):
        # The failing item must survive the process boundary, wrapped
        # in the caller's error type.
        with pytest.raises(AnalysisError, match=r"item 3 failed.*point exploded"):
            run_pool(explode_on_three, [1, 2, 3, 4], 2)

    def test_pooled_failure_chains_original(self):
        with pytest.raises(AnalysisError) as info:
            run_pool(explode_on_three, [1, 2, 3, 4], 2)
        assert isinstance(info.value.__cause__, ValueError)
        assert "point exploded" in str(info.value.__cause__)

    def test_pooled_failure_cancels_pending_items(self):
        # A fast failure among expensive items must not pay for the
        # rest of the list: the failing map costs about one in-flight
        # sleeper, like the 2-item baseline (which pays the same pool
        # start-up), NOT the ~4 extra sleeper rounds the remaining 8
        # items would take on two workers.  Comparing against the
        # measured baseline keeps the assertion robust to machine speed.
        start = time.perf_counter()
        run_pool(explode_fast_or_sleep, [1, 2], 2)
        baseline = time.perf_counter() - start

        start = time.perf_counter()
        with pytest.raises(AnalysisError, match="first point exploded"):
            run_pool(explode_fast_or_sleep, list(range(9)), 2)
        elapsed = time.perf_counter() - start
        assert elapsed < baseline + 1.0, (
            f"failing map took {elapsed:.2f}s vs {baseline:.2f}s "
            "baseline; pending items were not cancelled"
        )


class TestWarmCompileCache:
    def _circuit(self):
        return Circuit(3, name="warm").cnot(0, 1).toffoli(1, 2, 0)

    def test_pooled_warm_makes_every_task_a_hit(self):
        circuit = self._circuit()
        # Clear the parent cache so forked workers cannot inherit a
        # warm one — only the pool initializer can produce the hits.
        clear_compile_cache()
        results = run_pool(_compile_probe, [circuit] * 4, 2, warm=[circuit])
        assert results == [(1, 0)] * 4

    def test_pooled_without_warm_pays_cold_compiles(self):
        circuit = self._circuit()
        clear_compile_cache()
        results = run_pool(_compile_probe, [circuit] * 4, 2)
        # Fresh workers, no warming: at least one task pays a cold
        # compile miss (how many depends on scheduling).
        assert any(misses == 1 for _, misses in results)


@pytest.fixture
def traced(tmp_path):
    """A trace sink path, with tracing and metrics pristine around it."""
    disable_tracing()
    reset_metrics()
    yield tmp_path / "trace.json"
    disable_tracing()
    reset_metrics()


def _documents(sink: Path) -> tuple[dict, list[dict]]:
    """The parent's trace document and every worker's."""
    parent = json.loads(Path(flush_trace()).read_text())
    workers = [
        json.loads(path.read_text())
        for path in sorted(sink.parent.glob(sink.name + ".*"))
    ]
    return parent, workers


def _counter_total(documents, name: str) -> int:
    return sum(doc["metrics"]["counters"].get(name, 0) for doc in documents)


class TestWorkerTraces:
    def test_pooled_executor_worker_files_hold_only_worker_spans(self, traced):
        observable = MajorityMismatchObservable((0, 1, 2), 1)
        circuits = [
            Circuit(3, name="maj").maj(0, 1, 2),
            Circuit(3, name="cnot").cnot(0, 1),
            Circuit(3, name="toffoli").toffoli(0, 1, 2),
        ]
        specs = [
            RunSpec(
                circuit=circuit,
                input_bits=(1, 1, 1),
                observable=observable,
                noise=NoiseModel(gate_error=0.02),
                trials=500,
                seed=seed,
            )
            for seed, circuit in enumerate(circuits)
        ]
        enable_tracing(str(traced))
        Executor(ExecutionPolicy(parallel=2)).run(specs)
        parent, workers = _documents(traced)
        assert workers, "no worker trace file was written"
        for document in workers:
            assert validate_trace(document) == []
            assert document["pid"] != parent["pid"]
            assert {span["name"] for span in document["spans"]} == {
                "executor.group"
            }
        everything = [parent, *workers]
        assert _counter_total(everything, "executor.runs") == 1
        assert _counter_total(everything, "executor.groups") == len(specs)

    def test_pooled_sweep_job_worker_files_hold_only_worker_spans(
        self, traced, tmp_path
    ):
        seeds = spawn_seeds(5, 4)
        specs = cycle_error_specs(
            tuple((0.002 * (i + 1), seeds[i]) for i in range(4)), 200, cycles=1
        )
        enable_tracing(str(traced))
        policy = ExecutionPolicy(parallel=2)
        job = SweepJob.submit(tmp_path / "job", specs, policy, shard_size=1)
        report = job.run()
        parent, workers = _documents(traced)
        assert workers, "no worker trace file was written"
        for document in workers:
            assert validate_trace(document) == []
            assert {span["name"] for span in document["spans"]} == {
                "jobs.shard"
            }
        # One executor run and one group per shard, as in a serial run,
        # and none of them in the parent.
        assert parent["metrics"]["counters"]["executor.runs"] == 0
        everything = [parent, *workers]
        assert _counter_total(everything, "executor.runs") == report.shards_run
        assert _counter_total(everything, "executor.groups") == report.shards_run
