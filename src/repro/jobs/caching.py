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

from repro.jobs.store import ResultStore, point_address
from repro.obs import counter
from repro.runtime.spec import ExecutionPolicy, PointResult, RunSpec
from repro.runtime.executor import Executor

__all__ = ["CachingExecutor"]

# Process-wide split between simulated and store-served points, across
# every lookup of a CachingExecutor or a SweepJob.
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
        addresses = [point_address(spec) for spec in specs]
        results, pending = lookup(self.store, addresses)
        if pending:
            computed = self.executor.run([specs[i] for i in pending])
            record(self.store, [addresses[i] for i in pending], computed)
            self.simulated_points += len(pending)
            for index, result in zip(pending, computed):
                results[index] = result
        return results  # type: ignore[return-value]


def lookup(
    store: ResultStore, addresses: Sequence[tuple[str, dict] | None]
) -> tuple[list[PointResult | None], list[int]]:
    """Each address's stored result (``None`` where pending), and the
    pending positions, which the caller runs; a ``None`` address is
    always pending.  Counts the split in ``jobs.cache.*``.
    """
    results: list[PointResult | None] = [None] * len(addresses)
    pending: list[int] = []
    for index, address in enumerate(addresses):
        stored = None if address is None else store.get(address)
        if stored is None:
            pending.append(index)
        else:
            results[index] = stored
    _SIMULATED.inc(len(pending))
    _SERVED.inc(len(addresses) - len(pending))
    return results, pending


def record(
    store: ResultStore,
    addresses: Sequence[tuple[str, dict] | None],
    results: Sequence[PointResult],
) -> None:
    """Put each simulated result whose point has a store address."""
    for address, result in zip(addresses, results):
        if address is not None:
            store.put(address, result)
