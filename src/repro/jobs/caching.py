"""A store-backed executor: cache hits skip simulation entirely.

:class:`CachingExecutor` wraps the plain
:class:`~repro.runtime.Executor` behind the same ``run(specs) ->
list[PointResult]`` surface, so code written against an executor
gains a durable cache by swapping the object, not the code.

Lookup is per point: stored points come back without any
simulation, missing points run through the inner executor in ONE batch
(preserving its cross-point stacking) and are written back.  Because
the store key is the spec's content and no policy field can change a
result, a cached answer is *the* answer — bit-identical to
recomputation — and because points with no reproducible identity
(``None`` or generator seeds) have no key, they transparently bypass
the store instead of poisoning it.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.jobs.store import ResultStore
from repro.obs import counter
from repro.runtime.spec import ExecutionPolicy, PointResult, RunSpec
from repro.runtime.executor import Executor

__all__ = ["CachingExecutor"]

# Process-wide split between simulated and store-served points, across
# every CachingExecutor.
_SIMULATED = counter("jobs.cache.simulated_points")
_SERVED = counter("jobs.cache.served_points")


class CachingExecutor:
    """Executor-shaped wrapper that consults a :class:`ResultStore`.

    Attributes:
        policy: the wrapped executor's policy (exposed because callers
            of the plain executor read it).
        simulated_points: points this instance actually ran, a copy
            of the ``jobs.cache.simulated_points`` counter that the
            benchmark reads.
    """

    def __init__(self, store: ResultStore, policy: ExecutionPolicy | None = None):
        self.store = store
        self.executor = Executor(policy)
        self.policy = self.executor.policy
        self.simulated_points = 0  # delete with the next benchmark change

    def run(self, specs: Sequence[RunSpec]) -> list[PointResult]:
        """Evaluate every spec, serving stored points from the store.

        Results come back in spec order, exactly as the plain executor
        returns them; the split between served and simulated is
        visible only in the ``jobs.cache.*`` counters.
        """
        specs = list(specs)
        results, pending = lookup(self.store, specs)
        if pending:
            missed = [specs[i] for i in pending]
            computed = self.executor.run(missed)
            record(self.store, missed, computed)
            self.simulated_points += len(pending)
            _SIMULATED.inc(len(pending))
            for index, result in zip(pending, computed):
                results[index] = result
        _SERVED.inc(len(specs) - len(pending))
        return results  # type: ignore[return-value]


def lookup(
    store: ResultStore, specs: Sequence[RunSpec]
) -> tuple[list[PointResult | None], list[int]]:
    """Each spec's stored result, and the positions that must run.

    The result is ``None`` at each pending position.  A spec with no
    reproducible identity (a ``None`` or generator seed) has no store
    key, so it always runs.
    """
    results: list[PointResult | None] = [None] * len(specs)
    pending: list[int] = []
    for index, spec in enumerate(specs):
        stored = store.get(spec) if isinstance(spec.seed, int) else None
        if stored is None:
            pending.append(index)
        else:
            results[index] = stored
    return results, pending


def record(
    store: ResultStore, specs: Sequence[RunSpec], results: Sequence[PointResult]
) -> None:
    """Put each simulated result whose spec has a store key."""
    for spec, result in zip(specs, results):
        if isinstance(spec.seed, int):
            store.put(spec, result)
