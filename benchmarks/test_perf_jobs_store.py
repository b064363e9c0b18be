"""A warm result store answers sweeps without simulating.

Re-querying a completed 10-point logical-error sweep through the
content-keyed :class:`~repro.jobs.ResultStore` must serve IDENTICAL
results and simulate ZERO points (asserted via the caching executor's
counters, not inferred from timing).  The workload is the deep
sub-threshold storage sweep, at CI scale.  How fast the warm
re-query is belongs to the repository benchmark (the ``jobs-sweep``
workload of ``BENCHMARK.json``).
"""

from __future__ import annotations

from repro.harness.sweep import geometric_grid, spawn_seeds
from repro.harness.threshold_finder import cycle_error_specs
from repro.jobs import CachingExecutor, ResultStore
from repro.runtime import ExecutionPolicy, Executor

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
    assert cold.run(specs) == direct
    assert cold.simulated_points == POINTS
    # A fresh caching executor over the same store: every point comes
    # back from disk, bit-identical, simulation-free.
    warm = CachingExecutor(ResultStore(tmp_path / "store"), policy=policy)
    assert warm.run(specs) == direct
    assert warm.simulated_points == 0
    assert warm.cached_points == POINTS
    assert warm.store.stats()["hits"] == POINTS
