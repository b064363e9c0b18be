"""The fault kernel's heap policy: warm stacked groups take no page faults.

Importing :mod:`repro.noise.monte_carlo` pads glibc's heap top
(``M_TOP_PAD``) and fixes its mmap threshold, so the arrays one stacked
group frees stay mapped for the next group instead of being trimmed
and faulted back in.  Without the policy the ten timed batches below
take 9k to 12k minor faults; with it, under 1k.
"""

from __future__ import annotations

import ctypes

import pytest

from repro.harness.threshold_finder import cycle_stage_spec
from repro.runtime.executor import Executor
from repro.runtime.spec import ExecutionPolicy

resource = pytest.importorskip("resource")

try:
    ctypes.CDLL(None).mallopt
except (OSError, AttributeError, TypeError):
    pytest.skip("the C library has no mallopt", allow_module_level=True)

#: Minor faults allowed over the ten timed batches.
FAULT_BOUND = 2_000


def _batch(executor: Executor, index: int) -> None:
    trials = (20_000, 50_000)[index % 2]
    executor.run(
        [
            cycle_stage_spec(gate_error, trials, seed=100 * index + k)
            for k, gate_error in enumerate((0.01, 0.04, 0.08))
        ]
    )


def test_warm_batches_take_no_page_faults():
    executor = Executor(ExecutionPolicy())
    for index in range(3):
        _batch(executor, index)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for index in range(3, 13):
        _batch(executor, index)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults <= FAULT_BOUND, (
        f"{faults} minor faults over 10 warm batches (bound {FAULT_BOUND}): "
        "the heap top is being trimmed between stacked groups"
    )
