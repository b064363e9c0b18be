"""The sequential pseudo-threshold bisection: the search's test reference.

It evaluates the two bracket endpoints and then one midpoint per
iteration, each escalated stage by stage as its own solo
``Executor.run`` under its slot's pre-spawned seeds.  The stacked round
planner in :func:`repro.harness.threshold_finder.find_pseudo_threshold_adaptive`
must return the identical :class:`PseudoThreshold`.
"""

from __future__ import annotations

from repro.errors import AnalysisError
from repro.harness.threshold_finder import (
    PseudoThreshold,
    _interval_sign,
    _search_stages,
    _spawn_stage_seeds,
    per_cycle_rate,
)
from repro.runtime.executor import Executor
from repro.runtime.spec import ExecutionPolicy


def sequential_pseudo_threshold(
    lower, upper, trials, iterations=12, cycles=1, z=3.0, seed=0, *, spec_builder
) -> PseudoThreshold:
    stages = _search_stages(trials)
    slot_seeds = _spawn_stage_seeds(seed, stages, iterations)
    executor = Executor(ExecutionPolicy())
    spent = 0

    def measure(slot, g):
        """``(rate, sign)`` of ``g`` at the first stage that decides it."""
        nonlocal spent
        for n, stage_seed in zip(stages, slot_seeds[slot]):
            (result,) = executor.run([spec_builder(g, n, stage_seed)])
            spent += n
            sign = _interval_sign(g, result.failures, n, z, 2 * cycles)
            if sign:
                break
        return per_cycle_rate(result.failures, n, cycles), sign

    rate_low, sign_low = measure(0, lower)
    rate_high, sign_high = measure(1, upper)
    if sign_low > 0 or (sign_low == 0 and rate_low >= lower):
        raise AnalysisError("lower endpoint is not below identity")
    if sign_high < 0 or (sign_high == 0 and rate_high < upper):
        raise AnalysisError("upper endpoint is not above identity")
    low, high = lower, upper
    for iteration in range(iterations):
        middle = (low + high) / 2.0
        _, sign = measure(2 + iteration, middle)
        if sign == 0:
            return PseudoThreshold(middle, (low, high), 3 + iteration, spent, True)
        if sign < 0:
            low = middle
        else:
            high = middle
    return PseudoThreshold((low + high) / 2.0, (low, high), 2 + iterations, spent)
