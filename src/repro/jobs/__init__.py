"""repro.jobs — the resumable sweep service on top of the runtime.

The runtime (:mod:`repro.runtime`) answers "run these specs, now, in
this process".  This package turns that into a durable service:

* :mod:`~repro.jobs.store` — a content-keyed result store, read and
  written at each point's ``point_address``; a point computed once
  is never simulated again.
* :mod:`~repro.jobs.caching` — ``CachingExecutor``, the plain
  executor's surface with the store consulted per point.
* :mod:`~repro.jobs.planner` — deterministic, program-affine shard
  planning over a spec batch.
* :mod:`~repro.jobs.runner` — ``SweepJob``: submit, crash-safe
  resume from the store (a job's only result record), bit-identical
  collect/merge.

The whole layer preserves the executor's bit-identity guarantee: a
sharded, interrupted, resumed, store-served sweep returns exactly the
numbers one uninterrupted :meth:`~repro.runtime.executor.Executor.run` would.
``tools/jobs.py`` exposes submit/status/collect on the command line.
"""

# Kept for the benchmark; delete with the next benchmark change.
from repro.jobs.caching import CachingExecutor
from repro.jobs.runner import SweepJob
from repro.jobs.store import ResultStore

__all__ = ["CachingExecutor", "ResultStore", "SweepJob"]
