"""The executor: grouped, stacked, optionally pooled spec evaluation.

:meth:`Executor.run` takes a batch of :class:`~repro.runtime.spec.RunSpec`
points and returns one :class:`~repro.runtime.spec.PointResult` per
spec, in spec order.  The execution plan has three levels:

1. **Grouping.**  Specs sharing a compiled program — same circuit
   content, same input vector, same resolved engine — form one group.
   A bisection or sweep evaluating one circuit at many noise levels is
   a single group; a mixed workload (say fig3's level-1 and level-2
   concatenation circuits) is several.

2. **Stacked plane batching (within a group).**  A bitplane group's
   points all ride in ONE plane array: each point owns a word-aligned
   window of the trial axis (``points x trials`` on the word axis), so
   every slot of the shared program executes once over all points'
   words instead of once per point.  Faults come from the stacked
   fault kernel of :mod:`repro.noise.monte_carlo` — the same kernel
   :class:`~repro.noise.monte_carlo.NoisyRunner` runs as a one-point
   stack: each point draws and resolves its whole fault pass ONCE, the
   slot loop merely slices those tables, and all points' sites scatter
   in one take/put per slot group.  Fault *randomness* stays strictly
   per point — every point's gap-jumping pass and replacement words
   come from its own seeded generator in solo order — so, plane
   operations being wordwise, every point's window is
   **bit-identical** to running that spec alone through
   ``NoisyRunner``.  Batching is purely an execution detail, never a
   statistical one.  Fused and unfused programs (``policy.fuse``) run
   through the same kernel.

3. **Process pool (across groups only).**  With
   ``policy.parallel`` >= 2 workers and more than one group, whole
   groups fan out to a :mod:`concurrent.futures` pool (specs must then
   be picklable).  Points within a group never split across processes
   — they are already batched into one array, which is the cheaper
   kind of parallelism.

Batched-engine groups evaluate point by point through ``NoisyRunner``
— the uint8 engine has no plane axis to stack on.
"""

from __future__ import annotations

import os
from collections.abc import Sequence
from concurrent.futures import ProcessPoolExecutor
from functools import partial

from repro.backends import get_backend
from repro.core.bitplane import BitplaneState, words_for
from repro.core.compiled import compile_circuit
from repro.errors import AnalysisError, SimulationError
from repro.noise.monte_carlo import (
    NoisyRunner,
    _as_generator,
    _draw_phase,
    _inject_phase,
    _stack_plan,
    resolve_engine,
)
from repro.obs import counter, enable_tracing, flush_trace_if_forked, trace
from repro.runtime.spec import (
    ExecutionPolicy,
    PointResult,
    RunSpec,
    as_observable,
)

# Executor-layer metrics (see repro.obs for the naming convention).
# Held as module references so the hot paths pay one attribute
# increment, never a registry lookup.
_RUNS = counter("executor.runs")
_POINTS = counter("executor.points")
_GROUPS = counter("executor.groups")
_STACKED_POINTS = counter("executor.stacked_points")
_LEGACY_POINTS = counter("executor.legacy_points")


def resolve_workers(parallel: int | bool | None, points: int) -> int:
    """Worker count for a pooled fan-out: 0 means run in-process.

    ``None``/``False``/0/1 stay in-process, ``True`` means one worker
    per CPU, an integer is an explicit width; the width never exceeds
    the number of independent work items.  (Historically this lived in
    :mod:`repro.harness.sweep`, which still re-exports it.)
    """
    if parallel is None or parallel is False:
        return 0
    if parallel is True:
        workers = os.cpu_count() or 1
    else:
        workers = int(parallel)
        if workers < 0:
            raise AnalysisError(f"parallel must be >= 0, got {parallel}")
    workers = min(workers, points)
    return 0 if workers < 2 else workers


def _group_key(spec: RunSpec, policy: ExecutionPolicy) -> tuple:
    """Specs with equal keys share one compiled program and one batch.

    Circuits are grouped by the public
    :meth:`~repro.core.circuit.Circuit.content_key` — the compile
    cache's own notion of identity — so content-equal circuits in
    distinct objects (a synthesised or peephole-optimised circuit next
    to its hand-written reference, a circuit rebuilt by a spec factory)
    batch into one stacked plane array instead of merely sharing a
    compiled program across separate batches.  Hashing the op sequence
    is cheap next to even one spec's simulation, and batching never
    changes a point's numbers (the executor's bit-identity guarantee),
    so wider grouping is pure upside.
    """
    return (
        resolve_engine(policy.engine, spec.trials),
        spec.circuit.content_key(),
        spec.input_bits,
    )


def _run_point_batched(spec: RunSpec) -> PointResult:
    """Evaluate one spec on the uint8 batched engine."""
    runner = NoisyRunner(spec.noise, spec.seed, engine="batched")
    result = runner.run_from_input(spec.circuit, spec.input_bits, spec.trials)
    failures = as_observable(spec.observable).count_failures(result.states)
    return PointResult(
        failures=failures,
        trials=spec.trials,
        faulted_trials=int((result.fault_counts > 0).sum()),
        engine="batched",
    )


def _decode_phase(specs, states, words, offsets, faulted):
    """Observation phase — points sharing one observable (the sweep
    and threshold-search common case) are decoded in ONE stacked pass
    over the whole plane array; each point's count is read off its
    window of the resulting failure plane, so the decode cost is paid
    per *batch*, not per point.  Observables without a stacked path —
    and singleton clusters, where stacking buys nothing — keep the
    per-window ``count_failures`` call.
    """
    failure_counts: list[int | None] = [None] * len(specs)
    clusters: list[tuple[object, list[int]]] = []
    for p, spec in enumerate(specs):
        observable = as_observable(spec.observable)
        if hasattr(observable, "count_failures_stacked"):
            for seen, members in clusters:
                if seen == observable:
                    members.append(p)
                    break
            else:
                clusters.append((observable, [p]))
    for observable, members in clusters:
        if len(members) < 2:
            continue
        counts = observable.count_failures_stacked(
            states, [(offsets[p], specs[p].trials) for p in members]
        )
        for p, count in zip(members, counts):
            failure_counts[p] = count
    results = []
    for p, spec in enumerate(specs):
        failures = failure_counts[p]
        if failures is None:
            window = BitplaneState(
                states.planes[:, offsets[p]:offsets[p] + words[p]], spec.trials
            )
            failures = as_observable(spec.observable).count_failures(window)
        results.append(
            PointResult(
                failures=failures,
                trials=spec.trials,
                faulted_trials=faulted[p],
                engine="bitplane",
            )
        )
    return results


def _run_group_stacked(
    specs: Sequence[RunSpec], policy: ExecutionPolicy
) -> list[PointResult]:
    """Evaluate one bitplane group's points in a single stacked array.

    Point ``p`` occupies the word window ``[offset_p, offset_p +
    words_p)`` of every wire plane.  The shared program is applied once
    per slot over the whole array; the fault kernel draws each point's
    faults from its own generator in the solo order and scatters all
    points' sites together, so each point's window is **bit-identical**
    to running the spec alone.  The three phases (fault draw, slot
    loop, decode) each get a child span of the group span; tracing
    reads only the clock, never the generators, so an enabled trace
    cannot move a digest.
    """
    first = specs[0]
    compiled = compile_circuit(
        first.circuit, fuse=policy.fuse, cache=policy.compile_cache
    )
    backend = get_backend(policy.backend)
    prepared = backend.prepare(compiled)
    plan = _stack_plan(compiled)
    words = [words_for(spec.trials) for spec in specs]
    offsets = [0]
    for width in words[:-1]:
        offsets.append(offsets[-1] + width)
    total_words = sum(words)
    with trace(
        "executor.group",
        specs=len(specs),
        trials=sum(spec.trials for spec in specs),
        words=total_words,
        slots=len(compiled.slots),
        circuit=first.circuit.name or f"{first.circuit.n_wires}-wire",
    ):
        states = backend.broadcast(first.input_bits, total_words * 64)
        rngs = [_as_generator(spec.seed) for spec in specs]
        with trace("executor.group.draw"):
            points, faulted = _draw_phase(
                compiled,
                plan,
                [spec.noise for spec in specs],
                [spec.trials for spec in specs],
                rngs,
                offsets,
                total_words,
            )
        with trace("executor.group.apply"):
            _inject_phase(prepared, states, compiled, plan, points)
        with trace("executor.group.decode"):
            results = _decode_phase(specs, states, words, offsets, faulted)
    _STACKED_POINTS.inc(len(specs))
    return results


def _run_group(specs: Sequence[RunSpec], policy: ExecutionPolicy) -> list[PointResult]:
    """Evaluate one group in-process (also the pool's task function)."""
    if policy.trace:
        # Pool workers hydrate the tracer from the pickled policy so a
        # spawned child traces too (a forked child inherits it); each
        # worker rewrites its own `<path>.<pid>` file after every task,
        # because pool children exit via os._exit and never run atexit.
        enable_tracing(policy.trace)
    _GROUPS.inc()
    if resolve_engine(policy.engine, specs[0].trials) == "bitplane":
        results = _run_group_stacked(specs, policy)
    else:
        _LEGACY_POINTS.inc(len(specs))
        results = [_run_point_batched(spec) for spec in specs]
    flush_trace_if_forked()
    return results


class Executor:
    """Runs batches of :class:`RunSpec` under an :class:`ExecutionPolicy`.

    The default policy is hydrated from the environment once at
    construction (:meth:`ExecutionPolicy.from_env`), so a long-lived
    executor is immune to mid-run environment changes.
    """

    def __init__(self, policy: ExecutionPolicy | None = None):
        self.policy = policy if policy is not None else ExecutionPolicy.from_env()
        if self.policy.trace:
            enable_tracing(self.policy.trace)

    def run(self, specs: Sequence[RunSpec]) -> list[PointResult]:
        """Evaluate every spec; results come back in spec order."""
        specs = list(specs)
        if not specs:
            # Fast path: an empty batch is a valid no-op (the caching
            # executor and the shard runner routinely produce one when
            # every point was served from a store), not worth touching
            # policy resolution or grouping.
            return []
        for spec in specs:
            if not isinstance(spec, RunSpec):
                raise SimulationError(
                    f"Executor.run takes RunSpec instances, got "
                    f"{type(spec).__name__}"
                )
        _RUNS.inc()
        _POINTS.inc(len(specs))
        with trace("executor.run", specs=len(specs)) as span:
            groups: dict[tuple, list[int]] = {}
            for index, spec in enumerate(specs):
                groups.setdefault(
                    _group_key(spec, self.policy), []
                ).append(index)
            plan = list(groups.values())
            workers = resolve_workers(self.policy.parallel, len(plan))
            span.set(groups=len(plan), workers=workers)
            results: list[PointResult | None] = [None] * len(specs)
            if workers == 0:
                for indices in plan:
                    for index, result in zip(
                        indices,
                        _run_group([specs[i] for i in indices], self.policy),
                    ):
                        results[index] = result
            else:
                task = partial(_run_group, policy=self.policy)
                with ProcessPoolExecutor(max_workers=workers) as pool:
                    futures = [
                        pool.submit(task, [specs[i] for i in indices])
                        for indices in plan
                    ]
                    for indices, future in zip(plan, futures):
                        try:
                            group_results = future.result()
                        except Exception as exc:
                            # Cancel the not-yet-started groups so the
                            # error surfaces promptly instead of waiting
                            # for the rest of the batch (mirrors the
                            # harness sweep's fail-fast behaviour).
                            # Per-future cancel, NOT shutdown(
                            # cancel_futures=True): that path swaps the
                            # manager thread's pending-work dict while
                            # the queue feeder still pops from the old
                            # one, and a task that fails to pickle
                            # mid-flight then deadlocks the pool.
                            for pending in futures:
                                pending.cancel()
                            raise SimulationError(
                                f"executor group starting at "
                                f"{specs[indices[0]]!r} failed: {exc}"
                            ) from exc
                        for index, result in zip(indices, group_results):
                            results[index] = result
        return results  # type: ignore[return-value]

    def run_one(self, spec: RunSpec) -> PointResult:
        """Evaluate a single spec (sugar over :meth:`run`)."""
        return self.run([spec])[0]


def run_specs(
    specs: Sequence[RunSpec], policy: ExecutionPolicy | None = None
) -> list[PointResult]:
    """One-shot convenience: ``Executor(policy).run(specs)``."""
    return Executor(policy).run(specs)
