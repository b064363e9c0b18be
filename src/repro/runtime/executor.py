"""The executor: grouped, stacked, optionally pooled spec evaluation.

:meth:`Executor.run` takes a batch of :class:`~repro.runtime.spec.RunSpec`
points and returns one :class:`~repro.runtime.spec.PointResult` per
spec, in spec order.  The execution plan has three levels:

1. **Grouping.**  Specs sharing a compiled program — same circuit
   content, same input vector — form one group.
   A bisection or sweep evaluating one circuit at many noise levels is
   a single group; a mixed workload (say fig3's level-1 and level-2
   concatenation circuits) is several.

2. **Stacked plane batching (within a group).**  A group's points all ride in ONE plane array: each point owns a word-aligned
   window of the trial axis (``points x trials`` on the word axis), so
   every slot of the shared program executes once over all points'
   words instead of once per point.  Faults come from the stacked
   fault kernel of :mod:`repro.noise.monte_carlo` — the same kernel
   :class:`~repro.noise.monte_carlo.NoisyRunner` runs as a one-point
   stack: each point draws and resolves its whole fault pass ONCE, the
   slot loop merely slices those tables, and all points' sites scatter
   in one take and one store per run cell (a stretch of one
   group's consecutive ops within a slot).  Fault *randomness* stays strictly
   per point — every point's gap-jumping pass and replacement words
   come from its own seeded generator in solo order — so, plane
   operations being wordwise, every point's window is
   **bit-identical** to running that spec alone through
   ``NoisyRunner``.  Batching is purely an execution detail, never a
   statistical one.  Observation follows suit: each distinct
   observable computes one packed failure plane over its points'
   windows, and each point counts the trials of its own window.

3. **Process pool (across groups only).**  With
   ``policy.parallel`` >= 2 workers and more than one group, whole
   groups fan out through :func:`repro.runtime.pool.pool_map` (specs
   must then be picklable).  Points within a group never split across
   processes — they are already batched into one array, which is the
   cheaper kind of parallelism.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.core.bitplane import BitplaneState, count_trial_ones, words_for
from repro.core.compiled import compile_circuit
from repro.errors import SimulationError
from repro.noise.monte_carlo import (
    _draw_phase,
    _inject_phase,
    _stack_plan,
)
from repro.noise.seeds import as_generator
from repro.obs.metrics import counter
from repro.obs.tracing import trace
from repro.runtime.pool import pool_map, resolve_workers
from repro.runtime.spec import ExecutionPolicy, PointResult, RunSpec

# Executor-layer metrics (see repro.obs for the naming convention).
# Held as module references so the hot paths pay one attribute
# increment, never a registry lookup.
_RUNS = counter("executor.runs")
_GROUPS = counter("executor.groups")
_STACKED_POINTS = counter("executor.stacked_points")


def _group_key(spec: RunSpec) -> tuple:
    """Specs with equal keys share one compiled program and one batch.

    Circuits are grouped by the public
    :meth:`~repro.core.circuit.Circuit.content_key` — the compile
    cache's own notion of identity — so content-equal circuits in
    distinct objects (a synthesised or peephole-optimised circuit next
    to its hand-written reference, a circuit rebuilt by a spec factory)
    batch into one stacked plane array instead of merely sharing a
    compiled program across separate batches.  The key is a digest
    cached on the circuit, so grouping costs one string hash per spec,
    and batching never changes a point's numbers (the executor's
    bit-identity guarantee), so wider grouping is pure upside.  The job
    planner groups shards by this key too.
    """
    return spec.circuit.content_key(), spec.input_bits


def _decode_phase(specs, states, words, offsets, faulted):
    """Observation phase: one failure plane per distinct observable.

    Each distinct observable (compared with ``==``, in first-seen
    order) computes ONE failure plane over the word span from its
    first member's window to its last member's, and each member's
    count is read off its own window of that plane with its own
    padding mask.  Observables are per-trial functions and plane
    operations are wordwise, so a window's slice equals the plane a
    solo run produces: points sharing an observable (the sweep and
    threshold-search common case) pay one decode per group, and a lone
    observable reads only its own window.
    """
    clusters: list[tuple[object, list[int]]] = []
    for p, spec in enumerate(specs):
        for observable, members in clusters:
            if observable == spec.observable:
                members.append(p)
                break
        else:
            clusters.append((spec.observable, [p]))
    failures = [0] * len(specs)
    for observable, members in clusters:
        first, last = members[0], members[-1]
        start, stop = offsets[first], offsets[last] + words[last]
        failed = observable.failure_plane(
            BitplaneState(
                states.planes[:, start:stop],
                (offsets[last] - start) * 64 + specs[last].trials,
            )
        )
        if getattr(failed, "shape", None) != (stop - start,) or (
            failed.dtype != np.uint64
        ):
            raise SimulationError(
                f"{type(observable).__name__}.failure_plane must return a "
                f"({stop - start},) uint64 plane"
            )
        for p in members:
            at = offsets[p] - start
            failures[p] = count_trial_ones(
                failed[at:at + words[p]], specs[p].trials
            )
    return [
        PointResult(
            failures=failures[p], trials=spec.trials, faulted_trials=faulted[p]
        )
        for p, spec in enumerate(specs)
    ]


def _run_group(specs: Sequence[RunSpec]) -> list[PointResult]:
    """Evaluate one group's points in a single stacked array.

    Point ``p`` occupies the word window ``[offset_p, offset_p +
    words_p)`` of every wire plane.  The shared program is applied once
    per slot over the whole array; the fault kernel draws each point's
    faults from its own generator in the solo order and scatters all
    points' sites together, so each point's window is **bit-identical**
    to running the spec alone.  The three phases (fault draw, slot
    loop, decode) each get a child span of the group span; tracing
    reads only the clock, never the generators, so an enabled trace
    cannot move a digest.  Also the pool's task function.
    """
    _GROUPS.inc()
    first = specs[0]
    compiled = compile_circuit(first.circuit)
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
        states = BitplaneState.broadcast(first.input_bits, total_words * 64)
        rngs = [as_generator(spec.seed) for spec in specs]
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
            _inject_phase(states, compiled, plan, points)
        with trace("executor.group.decode"):
            results = _decode_phase(specs, states, words, offsets, faulted)
    _STACKED_POINTS.inc(len(specs))
    return results


class Executor:
    """Runs batches of :class:`RunSpec` under an :class:`ExecutionPolicy`.

    The default policy is hydrated from the environment once at
    construction (:meth:`ExecutionPolicy.from_env`), so a long-lived
    executor is immune to mid-run environment changes.
    """

    def __init__(self, policy: ExecutionPolicy | None = None):
        self.policy = policy if policy is not None else ExecutionPolicy.from_env()

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
        with trace("executor.run", specs=len(specs)) as span:
            groups: dict[tuple, list[int]] = {}
            for index, spec in enumerate(specs):
                groups.setdefault(_group_key(spec), []).append(index)
            plan = list(groups.values())
            workers = resolve_workers(self.policy.parallel, len(plan))
            span.set(groups=len(plan), workers=workers)
            outcomes = pool_map(
                _run_group,
                [[specs[i] for i in indices] for indices in plan],
                workers,
                error=SimulationError,
                label=lambda g: (
                    f"executor group starting at {specs[plan[g][0]]!r}"
                ),
            )
            results: list[PointResult | None] = [None] * len(specs)
            # Outcomes first: zip then drains the generator, which shuts
            # the pool down inside this span.
            for group_results, indices in zip(outcomes, plan):
                for index, result in zip(indices, group_results):
                    results[index] = result
        return results  # type: ignore[return-value]
