"""Sweep the physical error rate and locate the pseudo-threshold.

Run with::

    python examples/threshold_sweep.py [trials]

Measures the logical error per gate-plus-recovery cycle of the level-1
scheme across a geometric grid of gate error rates, compares it with
the Eq.-1 analytic bound ``3 C(11,2) g^2``, and runs the budget-aware
bisection for the pseudo-threshold (the crossing ``g_logical = g``).

The grid goes through the declarative runtime layer: all points share
the compiled cycle circuit, so ``measure_cycle_errors`` batches them
into ONE stacked bitplane run (each point still owns its spawned child
seed, and its numbers are bit-identical to measuring it alone —
batching is an execution detail, not a statistical one), and the
bisection itself runs as stacked rounds through its ``spec_builder``
form — no process pool needed.  The analytic threshold 1/165 is a
lower bound; the measured crossing lands above it.
"""

from __future__ import annotations

import sys

from repro.analysis.threshold import logical_error_bound, threshold
from repro.harness.sweep import geometric_grid
from repro.harness.tables import format_table
from repro.harness.threshold_finder import (
    cycle_stage_spec,
    find_pseudo_threshold_adaptive,
    measure_cycle_errors,
)
from repro.noise.seeds import spawn_seeds


def main(trials: int = 40000) -> None:
    print(f"analytic threshold (G=11): rho = 1/165 = {threshold(11):.5f}")
    print()

    # One executor group (all points share the cycle circuit), so the
    # whole grid is one stacked run.
    grid = geometric_grid(1e-3, 6e-2, 7)
    points = list(zip(grid, spawn_seeds(13, len(grid))))
    measured = measure_cycle_errors(points, trials)
    rows = []
    for g, (rate, _) in zip(grid, measured):
        bound = logical_error_bound(g, 11)
        rows.append(
            (
                f"{g:.2e}",
                f"{rate:.2e}",
                f"{bound:.2e}",
                "better" if rate < g else "worse",
            )
        )
    print(
        format_table(
            ("gate error g", "measured g_logical", "Eq.1 bound", "vs bare gate"),
            rows,
            title=(
                f"Logical error per cycle ({trials} trials per point, "
                "one stacked run)"
            ),
        )
    )
    print()

    # The bisection runs each escalation stage as one STACKED run on
    # the runtime layer: the bracket endpoints together, then each
    # round's midpoint.  A stage that has to run, unless it is the
    # final one, also runs the next possible midpoints' first stage —
    # a handful of stacked executions, bit-identical to evaluating the
    # stages one solo run at a time.
    result = find_pseudo_threshold_adaptive(
        lower=2e-3,
        upper=8e-2,
        trials=trials,
        iterations=10,
        seed=13,
        spec_builder=cycle_stage_spec,
    )
    print(f"measured pseudo-threshold: {result.estimate:.4f}")
    print(f"analytic lower bound     : {threshold(11):.4f}")
    print(
        f"({result.evaluations} evaluations, {result.trials_spent} trials"
        + (
            ", stopped at the budget's statistical resolution)"
            if result.resolution_limited
            else ")"
        )
    )
    print(
        "consistent with Section 5: the paper's thresholds are an "
        "existence proof, not an optimum."
    )


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 40000)
