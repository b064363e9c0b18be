"""Observability must be invisible to every published number.

The tentpole invariant of ``repro.obs``: tracing and metrics only
*observe*.  Enabling either must leave the frozen
RNG-stream digests bit-identical, reproduce the same experiment
numbers, and still emit a schema-valid trace document.  The digest
constants are duplicated from ``tests/noise/test_engine_determinism.py``
(test modules cannot import each other) — if an intentional RNG-stream
change re-records them there, re-record them here too.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.coding.concatenation import recovery_circuit
from repro.core.compiled import clear_compile_cache
from repro.harness.threshold_finder import (
    cycle_stage_spec,
    find_pseudo_threshold_adaptive,
    measure_cycle_errors,
)
from repro.noise.model import NoiseModel
from repro.noise.monte_carlo import NoisyRunner
from repro.obs.metrics import reset_metrics
from repro.obs.tracing import (
    disable_tracing,
    enable_tracing,
    flush_trace,
    validate_trace,
)

#: Duplicated from tests/noise/test_engine_determinism.py (same
#: reference run): any drift between the two files is itself a bug.
EXPECTED_DIGESTS = {
    "bitplane": "ce115c34cea8959e6de21dda74fe1cf4cb39830ac1803452e1367fb39de8e108",
}


@pytest.fixture(autouse=True)
def _pristine_obs():
    disable_tracing()
    reset_metrics()
    clear_compile_cache()
    yield
    disable_tracing()
    reset_metrics()
    clear_compile_cache()


def reference_run(seed: int = 2026):
    runner = NoisyRunner(NoiseModel(gate_error=0.01), seed=seed)
    return runner.run_from_input(recovery_circuit(), (1, 1, 1) + (0,) * 6, 1000)


def run_digest(result) -> str:
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(result.fault_counts).tobytes())
    digest.update(np.ascontiguousarray(result.states.array).tobytes())
    return digest.hexdigest()


def test_tracing_leaves_digests_frozen(tmp_path):
    enable_tracing(str(tmp_path / "trace.json"))
    assert run_digest(reference_run()) == EXPECTED_DIGESTS["bitplane"]


def test_traced_executor_run_matches_untraced(tmp_path):
    # The stacked executor path (the instrumented spans live there),
    # through the same front door EXPERIMENTS.md numbers use.
    points = ((0.004, 11), (0.01, 12), (0.02, 13))
    untraced = measure_cycle_errors(points, trials=2000)
    enable_tracing(str(tmp_path / "trace.json"))
    traced = measure_cycle_errors(points, trials=2000)
    assert traced == untraced

    destination = flush_trace()
    document = json.loads(Path(destination).read_text())
    assert validate_trace(document) == []
    names = set()

    def walk(spans):
        for span in spans:
            names.add(span["name"])
            walk(span["children"])

    walk(document["spans"])
    assert {"executor.run", "executor.group", "executor.group.draw"} <= names


def test_traced_threshold_search_matches_untraced(tmp_path):
    # The mc-threshold experiment's search, traced vs untraced — the
    # speculative round planner records spans and waste counters but
    # must return the identical PseudoThreshold.
    kwargs = dict(
        spec_builder=cycle_stage_spec,
        lower=0.001,
        upper=0.2,
        trials=2000,
        iterations=4,
        seed=7,
    )
    untraced = find_pseudo_threshold_adaptive(**kwargs)
    enable_tracing(str(tmp_path / "trace.json"))
    traced = find_pseudo_threshold_adaptive(**kwargs)
    assert traced == untraced

    document = json.loads(Path(flush_trace()).read_text())
    assert validate_trace(document) == []
    (search,) = [
        s for s in document["spans"] if s["name"] == "threshold.search"
    ]
    assert search["attrs"]["estimate"] == traced.estimate
    round_names = [c["name"] for c in search["children"]]
    assert "threshold.bracket" in round_names
    assert "threshold.round" in round_names
