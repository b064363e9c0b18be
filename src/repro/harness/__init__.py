"""Statistics, sweeps, threshold search, tables, experiment registry."""

from repro.harness.experiments import (
    REGISTRY,
    Experiment,
    ExperimentResult,
    execution_policy,
    run_experiment,
    trial_budget,
)
from repro.harness.stats import RateEstimate, required_trials, wilson_interval
from repro.harness.sweep import (
    SweepResult,
    crossing_index,
    geometric_grid,
    spawn_seeds,
    sweep,
)
from repro.harness.tables import format_table, paper_vs_measured
from repro.harness.threshold_finder import (
    PseudoThreshold,
    cycle_error_specs,
    cycle_stage_spec,
    find_pseudo_threshold_adaptive,
    measure_cycle_errors,
    per_cycle_rate,
)

__all__ = [
    "REGISTRY",
    "Experiment",
    "ExperimentResult",
    "execution_policy",
    "run_experiment",
    "trial_budget",
    "RateEstimate",
    "required_trials",
    "wilson_interval",
    "SweepResult",
    "crossing_index",
    "geometric_grid",
    "spawn_seeds",
    "sweep",
    "format_table",
    "paper_vs_measured",
    "PseudoThreshold",
    "cycle_error_specs",
    "cycle_stage_spec",
    "find_pseudo_threshold_adaptive",
    "measure_cycle_errors",
    "per_cycle_rate",
]
