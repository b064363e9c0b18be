"""A warm result store answers sweeps without simulating.

Re-querying a completed 10-point logical-error sweep through the
content-keyed :class:`~repro.jobs.store.ResultStore` must serve IDENTICAL
results and simulate ZERO points (asserted via the ``jobs.cache`` and
``jobs.store`` counters, not inferred from timing).  The workload is the deep
sub-threshold storage sweep, at CI scale.  How fast the warm
re-query is belongs to the repository benchmark (the ``jobs-sweep``
workload of ``BENCHMARK.json``).
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.harness.sweep import geometric_grid
from repro.noise.seeds import spawn_seeds
from repro.harness.threshold_finder import cycle_error_specs
from repro.jobs.caching import CachingExecutor
from repro.jobs.store import ResultStore
from repro.obs.tracing import disable_tracing, enable_tracing, flush_trace
from repro.runtime.executor import Executor
from repro.runtime.spec import ExecutionPolicy
from tests.conftest import CounterDeltas

TRIALS = 2000
POINTS = 10
CYCLES = 3


def _specs():
    grid = geometric_grid(1e-4, 2e-3, POINTS)
    points = tuple(zip(grid, spawn_seeds(17, POINTS)))
    return cycle_error_specs(points, TRIALS, cycles=CYCLES)


def test_store_serves_identical_results_small(tmp_path):
    """Correctness companion at CI scale: store == executor, point by point."""
    policy = ExecutionPolicy()
    specs = _specs()
    direct = Executor(policy).run(specs)
    cold = CachingExecutor(ResultStore(tmp_path / "store"), policy=policy)
    counts = CounterDeltas()
    assert cold.run(specs) == direct
    assert counts["jobs.cache.simulated_points"] == POINTS
    # A fresh caching executor over the same store: every point comes
    # back from disk, bit-identical, simulation-free.
    warm = CachingExecutor(ResultStore(tmp_path / "store"), policy=policy)
    counts = CounterDeltas()
    assert warm.run(specs) == direct
    assert counts["jobs.cache.simulated_points"] == 0
    assert counts["jobs.cache.served_points"] == POINTS
    assert counts["jobs.store.hit"] == POINTS


def test_each_caching_run_is_one_jobs_span(tmp_path):
    """Address hashing and store reads run under the run's ``jobs.run``
    span; only the misses reach the executor, nested inside it."""
    specs = _specs()
    enable_tracing(str(tmp_path / "trace.json"))
    try:
        for _ in ("cold", "warm"):
            CachingExecutor(ResultStore(tmp_path / "store")).run(specs)
        document = json.loads(Path(flush_trace()).read_text())
    finally:
        disable_tracing()
    cold, warm = document["spans"]
    assert [cold["name"], warm["name"]] == ["jobs.run", "jobs.run"]
    assert cold["attrs"] == warm["attrs"] == {"points": POINTS}
    assert [child["name"] for child in cold["children"]] == ["executor.run"]
    assert warm["children"] == []
