"""Bench: Monte-Carlo pseudo-threshold vs the analytic lower bound.

The search's speed is tracked by the ``threshold-search`` workload of
the repository benchmark (``perfbench/``).
"""

from __future__ import annotations

from benchmarks.conftest import run_once
from repro.harness.experiments import run_experiment


def test_mc_pseudo_threshold(benchmark, record):
    result = run_once(benchmark, lambda: run_experiment("mc-threshold"))
    record(result)
