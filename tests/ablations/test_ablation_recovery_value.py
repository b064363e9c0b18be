"""Ablation: what does the recovery cycle actually buy?

Runs the same logical gate sequence with and without error-recovery
cycles at a below-threshold error rate; the recovery-enabled run must
fail at a materially lower rate, and disabling it must reduce to the
unprotected scaling ~ gT.
"""

from __future__ import annotations

from repro.coding.logical import LogicalProcessor
from repro.core import library
from repro.harness.experiments import trial_budget
from repro.harness.tables import format_table
from repro.noise.model import NoiseModel
from repro.noise.monte_carlo import NoisyRunner

GATE_ERROR = 3e-3
# Long enough that unprotected error accumulation (~ T^2 g^2 without
# recovery, since uncorrected faults meet across the whole history)
# overtakes the ~ T c2 g^2 cost of recovering every cycle.  For very
# short computations skipping recovery is genuinely cheaper — that IS
# the trade the paper's overhead analysis prices.
LOGICAL_GATES = 50


def _failure_rate(recover: bool, seed: int, trials: int) -> float:
    processor = LogicalProcessor(3)
    for _ in range(LOGICAL_GATES // 2):
        processor.apply(library.MAJ, 0, 1, 2, recover=recover)
        processor.apply(library.MAJ_INV, 0, 1, 2, recover=recover)
    logical_input = (1, 0, 1)
    physical = processor.physical_input(logical_input)
    runner = NoisyRunner(NoiseModel(gate_error=GATE_ERROR), seed=seed)
    states = runner.run_from_input(processor.circuit, physical, trials).states
    failed = processor.decode_failure_plane(states, logical_input)
    return states.count_ones(failed) / trials


def test_ablation_recovery_value(published_table):
    trials = trial_budget()
    with_recovery = _failure_rate(recover=True, seed=91, trials=trials)
    without_recovery = _failure_rate(recover=False, seed=92, trials=trials)
    text = format_table(
        ("configuration", "failure rate"),
        [
            ("with recovery cycles", f"{with_recovery:.2e}"),
            ("without recovery cycles", f"{without_recovery:.2e}"),
            (
                "advantage",
                f"{without_recovery / max(with_recovery, 1e-12):.1f}x",
            ),
        ],
        title=(
            f"{LOGICAL_GATES} logical gates at g = {GATE_ERROR} "
            f"({trials} trials)"
        ),
    )
    published_table("ablation-recovery-value", text)
    assert with_recovery < without_recovery
