"""Ablation: logical-memory lifetime below and above threshold.

Stores a logical bit through repeated recovery cycles and measures the
survival fraction.  Below threshold the per-cycle loss is ~ c2 g^2, so
the lifetime stretches quadratically as g falls; above threshold the
memory collapses within a few cycles — the operational meaning of the
threshold.
"""

from __future__ import annotations

from repro.coding import repeated_recovery
from repro.harness.experiments import trial_budget
from repro.harness.tables import format_table
from repro.noise.model import NoiseModel
from repro.noise.monte_carlo import NoisyRunner

CYCLES = 25


def _survival(gate_error: float, trials: int, seed: int) -> float:
    circuit, layout = repeated_recovery(CYCLES)
    runner = NoisyRunner(NoiseModel(gate_error=gate_error), seed=seed)
    result = runner.run_from_input(circuit, (1, 1, 1) + (0,) * 6, trials)
    return float((result.states.majority_of(layout.data) == 1).mean())


def test_ablation_storage_lifetime(published_table):
    trials = min(trial_budget(), 20000)
    error_rates = (1e-3, 5e-3, 2e-2, 1e-1)
    survivals = [
        _survival(g, trials, seed=100 + i) for i, g in enumerate(error_rates)
    ]
    rows = [
        (f"{g:.0e}", f"{survival:.4f}")
        for g, survival in zip(error_rates, survivals)
    ]
    text = format_table(
        ("gate error g", f"survival after {CYCLES} cycles"),
        rows,
        title=f"Logical memory lifetime ({trials} trials)",
    )
    published_table("ablation-storage-lifetime", text)

    # Survival is monotone in g and collapses far above threshold.
    assert all(a >= b for a, b in zip(survivals, survivals[1:]))
    assert survivals[0] > 0.999
    assert survivals[-1] < 0.75
