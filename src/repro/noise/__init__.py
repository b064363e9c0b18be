"""Noise models, deterministic fault injection, and Monte Carlo."""

from repro.noise.injector import (
    Fault,
    count_fault_sites,
    iter_fault_pairs,
    iter_single_faults,
    run_with_faults,
)
from repro.noise.model import NoiseModel
from repro.noise.pair_analysis import (
    PairAnalysis,
    analyse_one_d_cycle,
    analyse_pairs,
    analyse_recovery_cycle,
)
from repro.noise.monte_carlo import (
    ENGINES,
    NoisyResult,
    NoisyRunner,
    any_wire_differs_predicate,
    repetition_failure_predicate,
    resolve_engine,
)
from repro.noise.seeds import as_generator, spawn_seeds

__all__ = [
    "Fault",
    "count_fault_sites",
    "iter_fault_pairs",
    "iter_single_faults",
    "run_with_faults",
    "NoiseModel",
    "PairAnalysis",
    "analyse_one_d_cycle",
    "analyse_pairs",
    "analyse_recovery_cycle",
    "ENGINES",
    "NoisyResult",
    "NoisyRunner",
    "any_wire_differs_predicate",
    "as_generator",
    "repetition_failure_predicate",
    "resolve_engine",
    "spawn_seeds",
]
