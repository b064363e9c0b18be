"""Tests for the sweep grid and seed helpers."""

from __future__ import annotations

import pytest

import repro.harness.sweep as sweep_module
from repro.harness.sweep import geometric_grid
from repro.errors import AnalysisError
from repro.noise.seeds import spawn_seeds


def test_module_exports_only_the_grid():
    # Sweeps run as RunSpec batches on the executor; this module keeps
    # only the grid helper (seeds come from repro.noise.seeds).
    assert sweep_module.__all__ == ["geometric_grid"]
    with pytest.raises(ImportError):
        from repro.harness.sweep import sweep  # noqa: F401


class TestSpawnSeeds:
    def test_deterministic(self):
        assert spawn_seeds(7, 5) == spawn_seeds(7, 5)

    def test_distinct_across_points_and_bases(self):
        seeds = spawn_seeds(7, 5)
        assert len(set(seeds)) == 5
        assert spawn_seeds(8, 5) != seeds

    def test_prefix_stability(self):
        # Growing a sweep must not reshuffle existing point seeds.
        assert spawn_seeds(7, 8)[:5] == spawn_seeds(7, 5)

    def test_count_validated(self):
        with pytest.raises(AnalysisError):
            spawn_seeds(7, -1)
        assert spawn_seeds(7, 0) == []


class TestGeometricGrid:
    def test_endpoints(self):
        grid = geometric_grid(1e-4, 1e-2, 5)
        assert grid[0] == pytest.approx(1e-4)
        assert grid[-1] == pytest.approx(1e-2)

    def test_constant_ratio(self):
        grid = geometric_grid(1.0, 16.0, 5)
        ratios = [b / a for a, b in zip(grid, grid[1:])]
        assert all(r == pytest.approx(2.0) for r in ratios)

    def test_single_point(self):
        assert geometric_grid(3.0, 9.0, 1) == [3.0]

    @pytest.mark.parametrize("points", [0, -3])
    def test_nonpositive_points_rejected(self, points):
        with pytest.raises(AnalysisError):
            geometric_grid(1.0, 2.0, points)

    @pytest.mark.parametrize("start,stop", [(0.0, 1.0), (1.0, 0.0), (-1.0, 2.0)])
    def test_nonpositive_endpoints_rejected(self, start, stop):
        with pytest.raises(AnalysisError):
            geometric_grid(start, stop, 3)
