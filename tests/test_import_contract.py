"""Cold-start import contract: an entry point loads only the layers it runs.

Each check imports in a fresh interpreter, so nothing the running test suite
has already imported can hide a module the import pulls in.  A package
``__init__`` that re-exports a heavy submodule, or a module-level
import of the process pool, fails here by name.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: The process-pool modules: only ``runtime.pool.pool_map`` opening a
#: pool may load them.
POOL = ("concurrent.futures", "multiprocessing")

#: What neither the runtime nor a threshold search runs: the experiment
#: registry and the layers it imports, the jobs layer, the spec wire
#: form, the exact pair census and the process pool.
HEAVY = (
    "repro.harness.experiments",
    "repro.synth",
    "repro.local",
    "repro.analysis",
    "repro.baselines",
    "repro.jobs",
    "repro.runtime.serialization",
    "repro.noise.pair_analysis",
) + POOL

IN_PROCESS_RUN = """
from repro.core.circuit import Circuit
from repro.noise import NoiseModel
from repro.runtime import (
    ExecutionPolicy, Executor, MajorityMismatchObservable, RunSpec,
)

observable = MajorityMismatchObservable((0, 1, 2), 1)
specs = [
    RunSpec(
        circuit=Circuit(3, name="maj").maj(0, 1, 2),
        input_bits=(1, 1, 1),
        observable=observable,
        noise=NoiseModel(gate_error=gate_error),
        trials=200,
        seed=seed,
    )
    for seed, gate_error in enumerate((0.01, 0.1))
]
results = Executor(ExecutionPolicy()).run(specs)
assert [result.trials for result in results] == [200, 200]
"""


def loaded_after(script: str, watched: tuple[str, ...]) -> list[str]:
    """The ``watched`` modules (or their submodules) ``script`` loads."""
    probe = script + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    child = subprocess.run(
        [sys.executable, "-c", probe],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert child.returncode == 0, child.stderr
    modules = json.loads(child.stdout.splitlines()[-1])
    return [
        name
        for name in modules
        if any(name == root or name.startswith(root + ".") for root in watched)
    ]


@pytest.mark.parametrize("entry", ["repro.runtime", "repro.harness.threshold_finder"])
def test_entry_loads_no_unused_layer(entry):
    assert loaded_after(f"import {entry}", HEAVY) == []


def test_jobs_loads_no_harness_and_no_pool():
    assert loaded_after("import repro.jobs", ("repro.harness",) + POOL) == []


def test_in_process_run_loads_no_pool():
    assert loaded_after(IN_PROCESS_RUN, POOL) == []


@pytest.mark.parametrize("package", ["harness", "runtime", "noise"])
def test_star_import_binds_every_exported_name(package):
    # A name left in __all__ after its import is deleted fails here.
    namespace: dict = {}
    exec(f"from repro.{package} import *", namespace)
    module = sys.modules[f"repro.{package}"]
    assert set(module.__all__) <= set(namespace)
