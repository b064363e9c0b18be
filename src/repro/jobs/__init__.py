"""repro.jobs — the resumable sweep service on top of the runtime.

The runtime (:mod:`repro.runtime`) answers "run these specs, now, in
this process".  This package turns that into a durable service:

* :mod:`~repro.jobs.store` — a content-keyed result store, read and
  written at each point's :func:`point_address`; a point computed once
  is never simulated again.
* :mod:`~repro.jobs.caching` — :class:`CachingExecutor`, the plain
  executor's surface with the store consulted per point.
* :mod:`~repro.jobs.planner` — deterministic, program-affine shard
  planning over a spec batch.
* :mod:`~repro.jobs.runner` — :class:`SweepJob`: submit, crash-safe
  resume from the store (a job's only result record), bit-identical
  collect/merge.

The whole layer preserves the executor's bit-identity guarantee: a
sharded, interrupted, resumed, store-served sweep returns exactly the
numbers one uninterrupted :meth:`~repro.runtime.Executor.run` would.
``tools/jobs.py`` exposes submit/status/collect on the command line.
"""

from repro.jobs.caching import CachingExecutor
from repro.jobs.planner import DEFAULT_SHARD_SIZE, Shard, plan_shards
from repro.jobs.runner import (
    JOB_FORMAT_VERSION,
    JobStatus,
    RunReport,
    SweepJob,
)
from repro.jobs.store import (
    RESULT_STREAM_VERSION,
    STORE_FORMAT_VERSION,
    ResultStore,
    point_address,
)

__all__ = [
    "CachingExecutor",
    "DEFAULT_SHARD_SIZE",
    "JOB_FORMAT_VERSION",
    "JobStatus",
    "RESULT_STREAM_VERSION",
    "ResultStore",
    "RunReport",
    "STORE_FORMAT_VERSION",
    "Shard",
    "SweepJob",
    "plan_shards",
    "point_address",
]
