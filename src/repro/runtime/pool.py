"""The process pool: the one place work fans out over processes.

:func:`pool_map` runs a picklable task over a list of items and yields
the results in item order.  :class:`~repro.runtime.executor.Executor` fans its
compiled groups out through it and :class:`~repro.jobs.runner.SweepJob` its
shards; nothing else in ``repro`` opens a pool.  Scheduling never
changes a result: every item carries its own seeds, so a pooled run is
bit-identical to the in-process one.

The helper owns everything a pooled task needs besides its own work:

* **Warm compiles.**  Each worker pre-compiles the given circuits once
  (:func:`~repro.core.compiled.warm_compile_cache`), so every task's
  compile is a cache hit.
* **Worker traces.**  When this process traces, each worker starts an
  empty span tree and empty metrics and writes them to
  ``<path>.<pid>`` after every task (pool children exit through
  ``os._exit``, so atexit never flushes them).  A worker file thus
  holds only that worker's work: no copy of the parent's open spans or
  counters inherited at fork.
* **Fail fast.**  The first failing item cancels every task not yet
  started and surfaces as the caller's error type, naming the item.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Iterator, Sequence
from functools import partial

from repro.core.compiled import warm_compile_cache
from repro.errors import AnalysisError
from repro.obs.metrics import reset_metrics
from repro.obs.tracing import (
    disable_tracing,
    enable_tracing,
    flush_trace,
    trace_sink,
)

__all__ = ["pool_map", "resolve_workers"]


def resolve_workers(parallel: int | bool | None, items: int) -> int:
    """Pool width for ``items`` independent tasks: 0 means in-process.

    ``None``/``False``/0/1 stay in-process, ``True`` means one worker
    per CPU, an integer is an explicit width; the width never exceeds
    the number of items.
    """
    if parallel is None or parallel is False:
        return 0
    if parallel is True:
        workers = os.cpu_count() or 1
    else:
        workers = int(parallel)
        if workers < 0:
            raise AnalysisError(f"parallel must be >= 0, got {parallel}")
    workers = min(workers, items)
    return 0 if workers < 2 else workers


def _start_worker(sink: str | None, warm: tuple) -> None:
    """Pool initializer: fresh observability, then the warm compiles."""
    disable_tracing()
    reset_metrics()
    if sink is not None:
        if sink not in ("stderr", "stdout"):
            sink = f"{sink}.{os.getpid()}"
        enable_tracing(sink)
    warm_compile_cache(warm)


def _run_task(task: Callable, item):
    result = task(item)
    flush_trace()
    return result


def pool_map(
    task: Callable,
    items: Sequence,
    width: int,
    *,
    error: type[Exception],
    label: Callable[[int], str],
    warm: Sequence = (),
) -> Iterator:
    """Yield ``task(item)`` for every item, in item order.

    ``width`` is a :func:`resolve_workers` result.  At 0 the tasks run
    in this process, one after another, and an error propagates
    unchanged.  Otherwise they run on ``width`` worker processes
    (``task`` and the items must pickle), each warmed with the distinct
    ``warm`` circuits, and a failing item raises ``error`` with the
    message ``"<label(index)> failed: <cause>"``, chained to the cause.
    The pool modules (``concurrent.futures``, ``multiprocessing``) load
    only here, when a pool opens: an in-process run never imports them.
    """
    if width == 0:
        for item in items:
            yield task(item)
        return
    from concurrent.futures import ProcessPoolExecutor

    distinct = tuple({c.content_key(): c for c in warm}.values())
    initializer = partial(_start_worker, trace_sink(), distinct)
    with ProcessPoolExecutor(max_workers=width, initializer=initializer) as pool:
        futures = [pool.submit(_run_task, task, item) for item in items]
        try:
            for index, future in enumerate(futures):
                try:
                    result = future.result()
                except Exception as exc:
                    raise error(f"{label(index)} failed: {exc}") from exc
                yield result
        finally:
            # On a failure (or a caller that stops early) cancel every
            # task not yet started, so the pool's exit waits only for
            # those in flight.  Per-future cancel, NOT shutdown(
            # cancel_futures=True): that path swaps the manager thread's
            # pending-work dict while the queue feeder still pops from
            # the old one, and a task that fails to pickle mid-flight
            # then deadlocks the pool.
            for future in futures:
                future.cancel()
