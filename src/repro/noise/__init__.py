"""Noise models, deterministic fault injection, and Monte Carlo.

The exact fault-pair census (``analyse_pairs`` and its cycle helpers)
lives in :mod:`repro.noise.pair_analysis`; no simulation path needs
it, so it is not re-exported here.
"""

from repro.noise.injector import (
    Fault,
    iter_fault_pairs,
    iter_single_faults,
    run_with_faults,
)
from repro.noise.model import NoiseModel
from repro.noise.monte_carlo import NoisyResult, NoisyRunner
from repro.noise.seeds import as_generator

__all__ = [
    "Fault",
    "iter_fault_pairs",
    "iter_single_faults",
    "run_with_faults",
    "NoiseModel",
    "NoisyResult",
    "NoisyRunner",
    "as_generator",
]
