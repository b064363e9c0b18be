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
# every CachingExecutor (the per-instance ints stay authoritative for
# "what did this executor do" assertions).
_SIMULATED = counter("jobs.cache.simulated_points")
_SERVED = counter("jobs.cache.served_points")


class CachingExecutor:
    """Executor-shaped wrapper that consults a :class:`ResultStore`.

    Attributes:
        policy: the wrapped executor's policy (exposed because callers
            of the plain executor read it).
        simulated_points: points this instance actually ran.
        cached_points: points served from the store.
    """

    def __init__(self, store: ResultStore, policy: ExecutionPolicy | None = None):
        self.store = store
        self.executor = Executor(policy)
        self.policy = self.executor.policy
        self.simulated_points = 0
        self.cached_points = 0

    def run(self, specs: Sequence[RunSpec]) -> list[PointResult]:
        """Evaluate every spec, serving stored points from the store.

        Results come back in spec order, exactly as the plain executor
        returns them; the split between served and simulated is
        visible only in the counters.
        """
        specs = list(specs)
        results: list[PointResult | None] = [None] * len(specs)
        pending: list[int] = []
        for index, spec in enumerate(specs):
            if not isinstance(spec.seed, int):
                # No reproducible identity -> no store key; always run.
                pending.append(index)
                continue
            stored = self.store.get(spec)
            if stored is None:
                pending.append(index)
            else:
                results[index] = stored
        if pending:
            computed = self.executor.run([specs[i] for i in pending])
            self.simulated_points += len(pending)
            _SIMULATED.inc(len(pending))
            for index, result in zip(pending, computed):
                results[index] = result
                if isinstance(specs[index].seed, int):
                    self.store.put(specs[index], result)
        self.cached_points += len(specs) - len(pending)
        _SERVED.inc(len(specs) - len(pending))
        return results  # type: ignore[return-value]
