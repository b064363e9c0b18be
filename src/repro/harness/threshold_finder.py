"""Monte-Carlo pseudo-threshold estimation.

The paper's threshold ``rho = 1/(3 C(G,2))`` is a *bound*: "the circuits
and threshold values presented here represent a lower bound on the
threshold" (Section 5).  The empirical pseudo-threshold — the gate
error where the measured logical error of one recovery level equals
the physical error — is therefore expected at or above ``rho``.  This
module estimates it by bisection over Monte-Carlo estimates.

:func:`find_pseudo_threshold_adaptive` runs every point — the two
bracket endpoints together, then one midpoint per round — through one
escalation loop: a 1/16-budget stage, then the full budget only while
the point's Wilson interval straddles the identity line, each stage one
stacked :class:`~repro.runtime.executor.Executor` call.  Its one
prefetch rule: a stage that has to run brings the first stage of the
next possible midpoints into its batch, unless it is the final stage,
so a full-budget stage never runs on speculation.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from repro.coding.logical import LogicalProcessor
from repro.core import library
from repro.harness.stats import wilson_interval
from repro.noise.model import NoiseModel
from repro.noise.seeds import spawn_seeds
from repro.obs.metrics import counter
from repro.obs.tracing import trace
from repro.runtime.executor import Executor
from repro.runtime.spec import DecodeObservable, ExecutionPolicy, RunSpec
from repro.errors import AnalysisError

#: Built cycle processors keyed by cycle count.  A bisection or sweep
#: evaluates the *same* circuit at many noise levels; memoising the
#: processor (and therefore the circuit object feeding the compile
#: cache) makes each extra evaluation pure simulation.
_PROCESSOR_CACHE: dict[int, LogicalProcessor] = {}

#: The logical word every cycle processor carries through its identity
#: cycles (MAJ then MAJ⁻¹ leave it unchanged).
_CYCLE_INPUT = (1, 0, 1)

# Search-shape metrics (repro.obs): how many stage evaluations the
# adaptive search spends, and how much of its speculative prefetching
# the bisection never consumed.  Observational only — the search's
# numbers are pinned bit-identical regardless.
_STAGE_EVALS = counter("threshold.stage_evaluations")
_SPECULATED = counter("threshold.speculated")
_SPECULATION_WASTED = counter("threshold.speculation_wasted")


def cycle_processor(cycles: int) -> LogicalProcessor:
    """The 3-logical-bit processor running ``cycles`` identity cycles.

    Memoised: every caller shares one processor per cycle count, so
    callers must not extend it (transformations such as
    :func:`repro.synth.peephole.inflate` return new circuits).
    """
    cached = _PROCESSOR_CACHE.get(cycles)
    if cached is not None:
        return cached
    processor = LogicalProcessor(3, include_resets=True)
    for _ in range(cycles):
        processor.apply(library.MAJ, 0, 1, 2)
        processor.apply(library.MAJ_INV, 0, 1, 2)
    _PROCESSOR_CACHE[cycles] = processor
    return processor


def cycle_error_specs(
    points: Sequence[tuple[float, int | np.random.Generator | None]],
    trials: int,
    cycles: int = 1,
    include_resets: bool = True,
) -> list[RunSpec]:
    """Declarative specs for the cycle-error measurement at ``points``.

    Each point is a ``(gate_error, seed)`` pair; every spec shares the
    memoised cycle circuit, so an :class:`~repro.runtime.executor.Executor`
    evaluates the whole batch as ONE stacked bitplane array (the
    multi-point sweep workload pays one program execution, not one per
    point).
    """
    if cycles < 1:
        raise AnalysisError(f"cycles must be >= 1, got {cycles}")
    if trials < 1:
        raise AnalysisError(f"trials must be >= 1, got {trials}")
    # The reset operations always run (the ancillas must be re-zeroed
    # between cycles); ``include_resets`` only selects whether they are
    # as noisy as gates (G = 11) or perfectly accurate (G = 9).
    processor = cycle_processor(cycles)
    physical = processor.physical_input(_CYCLE_INPUT)
    observable = DecodeObservable(processor, _CYCLE_INPUT)
    return [
        RunSpec(
            circuit=processor.circuit,
            input_bits=physical,
            observable=observable,
            noise=NoiseModel(
                gate_error=gate_error,
                reset_error=None if include_resets else 0.0,
            ),
            trials=trials,
            seed=seed,
        )
        for gate_error, seed in points
    ]


def per_cycle_rate(failures: int, trials: int, cycles: int) -> float:
    """Normalise a per-run failure count to a per-gate-cycle rate.

    Two logical gates per loop iteration; failures accumulate per gate
    cycle, so ``1 - (1 - f/n)**(1 / (2 * cycles))``.  Raises
    :class:`~repro.errors.AnalysisError` unless ``cycles >= 1``,
    ``trials >= 1`` and ``0 <= failures <= trials``.
    """
    if cycles < 1:
        raise AnalysisError(f"cycles must be >= 1, got {cycles}")
    if trials < 1:
        raise AnalysisError(f"trials must be >= 1, got {trials}")
    if not 0 <= failures <= trials:
        raise AnalysisError(
            f"failures ({failures}) must be within [0, trials={trials}]"
        )
    return _per_gate_cycle(failures / trials, 2 * cycles)


def _per_gate_cycle(per_run: float, gate_cycles: int) -> float:
    """A per-run failure rate over ``gate_cycles`` gate cycles, per cycle."""
    return 1.0 - (1.0 - per_run) ** (1.0 / gate_cycles)


def measure_cycle_errors(
    points: Sequence[tuple[float, int | np.random.Generator | None]],
    trials: int,
    cycles: int = 1,
    include_resets: bool = True,
    policy: ExecutionPolicy | None = None,
) -> list[tuple[float, int]]:
    """Measured logical error of ``cycles`` gate+recovery cycles.

    Builds a single logical bit that undergoes ``cycles`` logical
    identity-preserving gate cycles (a transversal self-inverse pair
    counts per the paper as a gate op on the codeword followed by
    recovery) and returns ``(per_cycle_rate, failures)`` for each
    ``(gate_error, seed)`` point, in point order.

    All points share one compiled circuit, so the executor evaluates
    them in a single stacked plane array; each point's numbers are
    bit-identical to measuring it alone.  ``policy`` defaults to
    :meth:`~repro.runtime.spec.ExecutionPolicy.from_env`.
    """
    specs = cycle_error_specs(points, trials, cycles, include_resets)
    results = Executor(policy).run(specs)
    return [
        (per_cycle_rate(result.failures, trials, cycles), result.failures)
        for result in results
    ]


@dataclass(frozen=True)
class PseudoThreshold:
    """Result of a bisection pseudo-threshold search.

    ``trials_spent`` and ``resolution_limited`` are filled in by
    :func:`find_pseudo_threshold_adaptive`: the latter is true when the
    search stopped because the full trial budget could no longer
    statistically separate the measured error from the identity line —
    the bisection has reached the resolution of the Monte-Carlo budget
    and further steps would refine noise, not signal.
    """

    estimate: float
    bracket: tuple[float, float]
    evaluations: int
    trials_spent: int = 0
    resolution_limited: bool = False


def _interval_sign(
    gate_error: float, failures: int, n: int, z: float, gate_cycles: int
) -> int:
    """-1/+1 when the Wilson interval separates from identity, else 0."""
    low, high = wilson_interval(failures, n, z)
    # The interval bounds the per-run rate; push it through the same
    # (monotone) per-cycle normalisation the point estimate uses.
    if _per_gate_cycle(high, gate_cycles) < gate_error:
        return -1
    if _per_gate_cycle(low, gate_cycles) > gate_error:
        return 1
    return 0


def _search_stages(trials: int) -> tuple[int, ...]:
    """The escalation ladder: 1/16 of the budget, then the full budget."""
    return tuple(dict.fromkeys((max(trials // 16, 1), trials)))


def _spawn_stage_seeds(
    seed: int | None, stages: tuple[int, ...], iterations: int
) -> list[tuple[int, ...]]:
    """One seed tuple per potential evaluation, spawned up front.

    Index 0 is the lower bracket endpoint, 1 the upper, ``2 + i`` the
    midpoint of bisection iteration ``i`` — whichever point *becomes*
    that midpoint — so the whole search is a pure function of ``seed``
    and two searches that evaluate the same points consume identical
    per-stage seeds regardless of how the evaluations were batched.
    """
    all_seeds = spawn_seeds(seed, (2 + iterations) * len(stages))
    return [
        tuple(all_seeds[i * len(stages):(i + 1) * len(stages)])
        for i in range(2 + iterations)
    ]


def cycle_stage_spec(
    gate_error: float,
    n_trials: int,
    seed: int,
    cycles: int = 1,
    include_resets: bool = True,
) -> RunSpec:
    """One escalation stage of the cycle-error workload as a spec.

    The ``spec_builder`` the stacked threshold search feeds to its
    :class:`~repro.runtime.executor.Executor` — module-level (and building on
    the memoised cycle processor) so specs are picklable and every
    stage of every candidate shares ONE compiled circuit.  A search
    with ``cycles != 1`` must bind the same value here
    (``functools.partial(cycle_stage_spec, cycles=...)``) so the
    circuit matches the search's rate normalisation.
    """
    return cycle_error_specs(((gate_error, seed),), n_trials, cycles, include_resets)[0]


def find_pseudo_threshold_adaptive(
    lower: float,
    upper: float,
    trials: int,
    iterations: int = 12,
    cycles: int = 1,
    z: float = 3.0,
    seed: int | None = 0,
    *,
    spec_builder: Callable[[float, int, int], RunSpec],
    policy: ExecutionPolicy | None = None,
) -> PseudoThreshold:
    """Budget-aware bisection for the crossing ``f(g) = g``.

    A bisection step only consumes the *sign* of ``f(g) - g``, so each
    point first runs at 1/16 of ``trials`` and escalates to the full
    budget only when the ``z``-sigma Wilson interval of the small run
    straddles the identity line; points far from the crossing — most of
    them, early in the search — are decided at a fraction of the cost.
    When even the full budget cannot separate a midpoint from the
    identity, the crossing has been located to within the budget's
    statistical resolution and the search stops there
    (``resolution_limited``) instead of bisecting noise.

    ``spec_builder(g, n_trials, seed) -> RunSpec`` builds one stage of
    the workload (e.g. :func:`cycle_stage_spec`).  The reported rates
    normalise the per-run failure fraction by ``cycles`` gate cycles
    (:func:`per_cycle_rate`), so the builder must bake the MATCHING
    cycle count into its circuit — for ``cycles != 1`` pass e.g.
    ``functools.partial(cycle_stage_spec, cycles=3)``, not the bare
    builder.

    Each stage is one stacked call on
    :class:`~repro.runtime.executor.Executor` under ``policy``, with the
    module's one prefetch rule: a stage that has to run and is not the
    final one also runs the next possible midpoints' first stage — the
    bracket's first midpoint, or a midpoint's low-side and high-side
    children, whose circuits are identical.  The bisection reads one of
    them; the other is discarded.

    Per-stage seeds are spawned from ``seed`` per evaluation *slot*
    (the two bracket endpoints, then one slot per bisection iteration),
    so the result is a pure function of the arguments: it equals
    evaluating the same points one at a time, and ``trials_spent``
    bills only the stages the bisection read, never unused speculation.
    """
    if not 0 <= lower < upper <= 1:
        raise AnalysisError(f"need 0 <= lower < upper <= 1, got {lower}, {upper}")
    if trials < 1:
        raise AnalysisError(f"trials must be >= 1, got {trials}")
    if iterations < 0:
        raise AnalysisError(f"iterations must be >= 0, got {iterations}")
    if z < 0:
        raise AnalysisError(f"z must be >= 0, got {z}")
    with trace(
        "threshold.search",
        lower=lower,
        upper=upper,
        trials=trials,
        iterations=iterations,
    ) as span:
        stages = _search_stages(trials)
        final_stage = len(stages) - 1
        slot_seeds = _spawn_stage_seeds(seed, stages, iterations)
        executor = Executor(policy)
        # (slot, stage, g) -> failures.  Prefetched keys the search never
        # read are its ``threshold.speculation_wasted``.
        failures: dict[tuple[int, int, float], int] = {}
        speculated: set[tuple[int, int, float]] = set()
        read: set[tuple[int, int, float]] = set()

        def escalate(points, prefetch):
            """Run ``(slot, g)`` points stage by stage until each separates.

            Returns ``{slot: (rate, sign)}`` at each point's last stage
            (sign 0 if the budget ran out first) and the trials read.
            """
            outcome = {}
            spent = 0
            for stage, n in enumerate(stages):
                keys = [(slot, stage, g) for slot, g in points]
                batch = [key for key in keys if key not in failures]
                if batch:
                    if stage < final_stage:
                        guesses = [(slot, 0, g) for slot, g in prefetch]
                        guesses = [key for key in guesses if key not in failures]
                        speculated.update(guesses)
                        _SPECULATED.inc(len(guesses))
                        batch += guesses
                    _STAGE_EVALS.inc(len(batch))
                    specs = [
                        spec_builder(g, stages[k], slot_seeds[slot][k])
                        for slot, k, g in batch
                    ]
                    for (slot, k, g), spec in zip(batch, specs):
                        if spec.trials != stages[k]:
                            raise AnalysisError(
                                f"spec_builder returned {spec.trials} trials for "
                                f"a {stages[k]}-trial stage at g={g:.3g}; the "
                                "stage budget is not negotiable"
                            )
                    for key, result in zip(batch, executor.run(specs)):
                        failures[key] = result.failures
                read.update(keys)
                undecided = []
                for (slot, g), key in zip(points, keys):
                    sign = _interval_sign(g, failures[key], n, z, 2 * cycles)
                    outcome[slot] = (per_cycle_rate(failures[key], n, cycles), sign)
                    spent += n
                    if sign == 0:
                        undecided.append((slot, g))
                points = undecided
                if not points:
                    break
            return outcome, spent

        first_midpoint = [(2, (lower + upper) / 2.0)] if iterations else []
        with trace("threshold.bracket", lower=lower, upper=upper) as bracket_span:
            ends, trials_spent = escalate([(0, lower), (1, upper)], first_midpoint)
            bracket_span.set(spent=trials_spent)
            (rate_low, sign_low), (rate_high, sign_high) = ends[0], ends[1]
            # An endpoint the full budget cannot separate (sign 0) falls
            # back to the point estimate, so tiny budgets still get a
            # best-effort search; only an endpoint on the wrong side of
            # the identity line is a caller error.
            if sign_low > 0 or (sign_low == 0 and rate_low >= lower):
                raise AnalysisError(
                    f"error rate {rate_low:.3g} at g={lower:.3g} is not below "
                    "identity; lower the bracket"
                )
            if sign_high < 0 or (sign_high == 0 and rate_high < upper):
                raise AnalysisError(
                    f"error rate {rate_high:.3g} at g={upper:.3g} is not above "
                    "identity; raise the bracket"
                )

        evaluations = 2
        resolution_limited = False
        low, high = lower, upper
        for iteration in range(iterations):
            middle = (low + high) / 2.0
            slot = 2 + iteration
            children = []
            if iteration + 1 < iterations:
                # Unless this round stops the search, one of these is
                # the next round's midpoint.
                children = [
                    (slot + 1, (low + middle) / 2.0),
                    (slot + 1, (middle + high) / 2.0),
                ]
            with trace(
                "threshold.round", iteration=iteration, middle=middle
            ) as round_span:
                outcome, spent = escalate([(slot, middle)], children)
                _, sign = outcome[slot]
                round_span.set(sign=sign, spent=spent)
            evaluations += 1
            trials_spent += spent
            if sign == 0:
                resolution_limited = True
                break
            if sign < 0:
                low = middle
            else:
                high = middle

        result = PseudoThreshold(
            estimate=(low + high) / 2.0,
            bracket=(low, high),
            evaluations=evaluations,
            trials_spent=trials_spent,
            resolution_limited=resolution_limited,
        )
        wasted = len(speculated - read)
        _SPECULATION_WASTED.inc(wasted)
        span.set(
            estimate=result.estimate,
            evaluations=result.evaluations,
            trials_spent=result.trials_spent,
            resolution_limited=result.resolution_limited,
            speculated=len(speculated),
            speculation_wasted=wasted,
        )
    return result
