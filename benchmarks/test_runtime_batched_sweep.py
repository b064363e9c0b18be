"""Cross-point plane batching on the sub-threshold storage sweep.

The workload is the per-cycle logical error of a 3-cycle gate+recovery
circuit across a geometric grid of gate errors from 1e-4 to 2e-3
(around and below the analytic ``rho = 1/165``).  Stacked execution is
bit-identical per point to solo runs, asserted here at CI scale; its
speed at 100k trials is tracked by the ``sweep-sparse`` workload of the
repository benchmark (``perfbench/``).
"""

from __future__ import annotations

from repro.harness.sweep import geometric_grid
from repro.noise.seeds import spawn_seeds
from repro.harness.threshold_finder import measure_cycle_errors

POINTS = 10
CYCLES = 3


def _grid_points() -> list[tuple[float, int]]:
    grid = geometric_grid(1e-4, 2e-3, POINTS)
    return list(zip(grid, spawn_seeds(17, POINTS)))


def test_batched_sweep_matches_solo_runs_small():
    """Correctness companion at CI scale: stacked == solo, point by point."""
    points = _grid_points()[:4]
    stacked = measure_cycle_errors(points, 5000, cycles=CYCLES)
    for point, result in zip(points, stacked):
        assert measure_cycle_errors([point], 5000, cycles=CYCLES)[0] == result
