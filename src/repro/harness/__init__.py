"""Statistics, sweeps, threshold search and tables.

The experiment registry (``REGISTRY``, ``run_experiment`` and the rest)
lives in :mod:`repro.harness.experiments` and is not re-exported here:
it imports every layer the experiments run (synth, local, analysis,
baselines), and a threshold search needs none of them.
"""

from repro.harness.stats import RateEstimate, wilson_interval
from repro.harness.sweep import geometric_grid
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
    "RateEstimate",
    "wilson_interval",
    "geometric_grid",
    "format_table",
    "paper_vs_measured",
    "PseudoThreshold",
    "cycle_error_specs",
    "cycle_stage_spec",
    "find_pseudo_threshold_adaptive",
    "measure_cycle_errors",
    "per_cycle_rate",
]
