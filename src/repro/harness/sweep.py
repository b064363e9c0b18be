"""Sweep grids.

``geometric_grid`` spaces a sweep's parameter values.  Per-point seeds
come from :func:`repro.noise.seeds.spawn_seeds`, which derives child
seeds from one base seed via :class:`numpy.random.SeedSequence`, so
every point owns an independent, reproducible stream however the
points are scheduled.

A sweep itself is a batch of :class:`~repro.runtime.spec.RunSpec` points
through :class:`~repro.runtime.executor.Executor` (or a
:class:`~repro.jobs.runner.SweepJob` for a durable one), which stacks points
sharing a circuit into one plane array.
"""

from __future__ import annotations

from repro.errors import AnalysisError

__all__ = ["geometric_grid"]


def geometric_grid(start: float, stop: float, points: int) -> list[float]:
    """``points`` geometrically spaced values from start to stop.

    Geometric spacing requires strictly positive endpoints, and a grid
    needs at least one point; violations raise :class:`AnalysisError`
    instead of silently collapsing to ``[start]``.
    """
    if points < 1:
        raise AnalysisError(f"grid needs >= 1 point, got {points}")
    if start <= 0 or stop <= 0:
        raise AnalysisError(
            f"geometric grid endpoints must be positive, got {start}, {stop}"
        )
    if points == 1:
        return [start]
    ratio = (stop / start) ** (1.0 / (points - 1))
    return [start * ratio**i for i in range(points)]
