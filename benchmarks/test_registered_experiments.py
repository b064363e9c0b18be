"""Bench: every registered experiment, one parametrised case each.

Each case runs one entry of :data:`repro.harness.experiments.REGISTRY`
for a single measured round, prints its paper-vs-measured table,
writes it to ``benchmarks/results/<id>.txt`` and asserts that every
row matched, so a newly registered experiment is benched with no new
file.  Speed is measured by the repository benchmark (``perfbench/``).
"""

import pytest

from benchmarks.conftest import run_once
from repro.harness.experiments import REGISTRY, run_experiment


@pytest.mark.parametrize("experiment_id", list(REGISTRY))
def test_experiment(benchmark, record, experiment_id):
    result = run_once(benchmark, lambda: run_experiment(experiment_id))
    record(result)
