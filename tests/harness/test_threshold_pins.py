"""Frozen results of the pseudo-threshold search.

These values depend on the fault stream (the same contract as the
digests in ``tests/noise/test_engine_determinism.py``) and on the
search's slot seeding and round planning.  A change to the search that
moves any of them changes the ``mc-threshold`` experiment.
"""

from __future__ import annotations

from functools import partial

from repro.harness.threshold_finder import (
    PseudoThreshold,
    cycle_stage_spec,
    find_pseudo_threshold_adaptive,
)
from repro.obs.metrics import counter
from repro.runtime.spec import ExecutionPolicy

COUNTERS = (
    "executor.runs",
    "threshold.stage_evaluations",
    "threshold.speculated",
    "threshold.speculation_wasted",
)


def test_canonical_search_is_pinned():
    # The mc-threshold experiment's search at its default budget.
    before = {name: counter(name).snapshot() for name in COUNTERS}
    result = find_pseudo_threshold_adaptive(
        lower=2e-3,
        upper=8e-2,
        trials=100_000,
        iterations=8,
        seed=51,
        spec_builder=cycle_stage_spec,
        policy=ExecutionPolicy(),
    )
    deltas = {name: counter(name).snapshot() - before[name] for name in COUNTERS}
    assert result == PseudoThreshold(
        estimate=0.0385625,
        bracket=(0.036125000000000004, 0.041),
        evaluations=7,
        trials_spent=343_750,
        resolution_limited=True,
    )
    assert deltas == {
        "executor.runs": 6,
        "threshold.stage_evaluations": 12,
        "threshold.speculated": 5,
        "threshold.speculation_wasted": 2,
    }


def test_small_budget_search_is_pinned():
    # 2,000 trials: the 125-trial first stage pads its second word.
    result = find_pseudo_threshold_adaptive(
        lower=2e-3,
        upper=8e-2,
        trials=2000,
        iterations=4,
        seed=3,
        spec_builder=cycle_stage_spec,
        policy=ExecutionPolicy(),
    )
    assert result == PseudoThreshold(
        estimate=0.041,
        bracket=(0.002, 0.08),
        evaluations=3,
        trials_spent=6375,
        resolution_limited=True,
    )


def test_two_cycle_search_is_pinned():
    result = find_pseudo_threshold_adaptive(
        lower=2e-3,
        upper=8e-2,
        trials=2000,
        iterations=3,
        cycles=2,
        seed=11,
        spec_builder=partial(cycle_stage_spec, cycles=2),
        policy=ExecutionPolicy(),
    )
    assert result == PseudoThreshold(
        estimate=0.03125,
        bracket=(0.021500000000000002, 0.041),
        evaluations=5,
        trials_spent=6625,
        resolution_limited=True,
    )
