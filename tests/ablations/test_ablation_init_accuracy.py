"""Ablation: the paper's two initialisation accountings, measured.

Section 2.2 quotes both G = 11 (initialisation as noisy as gates,
rho = 1/165) and G = 9 (accurate initialisation, rho = 1/108).  This
test measures the logical error under both noise models and confirms
accurate initialisation strictly helps — the measured counterpart of
the two threshold columns.
"""

from __future__ import annotations

from repro.harness.experiments import trial_budget
from repro.harness.tables import format_table
from repro.harness.threshold_finder import measure_cycle_errors

GATE_ERROR = 8e-3


def test_ablation_init_accuracy(published_table):
    trials = trial_budget()
    (noisy_init, _), = measure_cycle_errors(
        ((GATE_ERROR, 93),), trials, include_resets=True
    )
    (clean_init, _), = measure_cycle_errors(
        ((GATE_ERROR, 94),), trials, include_resets=False
    )
    text = format_table(
        ("initialisation model", "G", "analytic rho", "measured g_logical"),
        [
            ("as noisy as gates", 11, "1/165", f"{noisy_init:.2e}"),
            ("perfectly accurate", 9, "1/108", f"{clean_init:.2e}"),
        ],
        title=f"Per-cycle logical error at g = {GATE_ERROR} ({trials} trials)",
    )
    published_table("ablation-init-accuracy", text)
    assert clean_init <= noisy_init
