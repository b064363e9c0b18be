"""Import contract: one import path per name, and lean cold starts.

Every name is imported from the module that defines it
(``from repro.core.library import MAJ``): a package ``__init__`` binds
no name from its submodules, except the few the benchmark imports
through a package, and no module imports a name from a module that
only imports it.  The AST scans below check this.

The cold-start checks import in a fresh interpreter, so nothing the
running test suite has already imported can hide a module the import
pulls in; a module-level import of the process pool, or of a layer an
entry point never runs, fails there by name.
"""

from __future__ import annotations

import ast
import functools
import json
import os
import subprocess
import sys
import types
from collections import defaultdict
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"

#: The names ``perfbench/`` imports through package ``__init__``s, the
#: only names with a second import path.  ``repro.backends`` defines
#: its names in its ``__init__``; the other three re-export them.
#: Kept for the benchmark; delete with the next benchmark change.
BENCHMARK_NAMES = {
    "repro.backends": {"get_backend"},
    "repro.jobs": {"CachingExecutor", "ResultStore", "SweepJob"},
    "repro.obs": {
        "disable_tracing",
        "enable_tracing",
        "flush_trace",
        "metrics_snapshot",
        "trace",
    },
    "repro.runtime": {"ExecutionPolicy", "Executor"},
}

#: The tests that pin the benchmark's backend names; the only files
#: outside ``perfbench/`` that may import through a facade.
PINS_BENCHMARK_NAMES = {
    "tests/backends/test_conformance.py",
    "tests/noise/test_engine_determinism.py",
    "tests/verify/test_backend_programs.py",
}

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
from repro.noise.model import NoiseModel
from repro.runtime.executor import Executor
from repro.runtime.spec import (
    ExecutionPolicy, MajorityMismatchObservable, RunSpec,
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


@pytest.mark.parametrize("package", ["harness", "runtime", "noise", "obs", "jobs"])
def test_star_import_binds_every_exported_name(package):
    # A name left in __all__ after its import is deleted fails here; a
    # package without __all__ exports nothing but its submodules.
    namespace: dict = {}
    exec(f"from repro.{package} import *", namespace)
    module = sys.modules[f"repro.{package}"]
    exported = set(getattr(module, "__all__", ()))
    assert exported <= set(namespace)
    others = set(namespace) - exported - {"__builtins__"}
    assert all(isinstance(namespace[name], types.ModuleType) for name in others), others


def module_file(module: str) -> Path | None:
    """The source file of ``module`` under ``src`` (a package's ``__init__``)."""
    base = SRC.joinpath(*module.split("."))
    for path in (base / "__init__.py", base.with_suffix(".py")):
        if path.is_file():
            return path
    return None


def is_submodule(package: str, name: str) -> bool:
    base = SRC.joinpath(*package.split("."), name)
    return base.with_suffix(".py").is_file() or (base / "__init__.py").is_file()


@functools.cache
def import_froms(path: Path) -> tuple[tuple[int, str, str], ...]:
    """``(line, source module, name)`` per name of every ``from`` import."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom):
            source = node.module or ""
            if node.level:
                # Relative: resolve against the file's package.
                parts = path.parent.relative_to(SRC).parts
                anchor = list(parts[: len(parts) - node.level + 1])
                source = ".".join(anchor + ([source] if source else []))
            found.extend((node.lineno, source, alias.name) for alias in node.names)
    return tuple(found)


def bound_by_import(path: Path, within: str = "") -> set[str]:
    """The names ``path`` imports from modules under ``within``, not
    counting submodules, which have an import path of their own."""
    return {
        name
        for _line, source, name in import_froms(path)
        if source.startswith(within) and not is_submodule(source, name)
    }


def test_only_the_benchmark_facades_reexport():
    reexports = {}
    for init in sorted((SRC / "repro").rglob("__init__.py")):
        package = ".".join(init.parent.relative_to(SRC).parts)
        names = bound_by_import(init, within=package + ".")
        if names:
            reexports[package] = names
    facades = {p: n for p, n in BENCHMARK_NAMES.items() if p != "repro.backends"}
    assert reexports == facades
    for package, names in facades.items():
        tree = ast.parse(module_file(package).read_text())
        (exported,) = (
            node.value
            for node in tree.body
            if isinstance(node, ast.Assign)
            and [target.id for target in node.targets] == ["__all__"]
        )
        assert set(ast.literal_eval(exported)) == names, package


def test_benchmark_names_are_what_perfbench_imports():
    imported = defaultdict(set)
    for path in sorted((REPO / "perfbench").glob("*.py")):
        for _line, source, name in import_froms(path):
            origin = module_file(source)
            if origin is not None and origin.name == "__init__.py":
                imported[source].add(name)
    assert imported == BENCHMARK_NAMES


def test_every_name_is_imported_from_its_defining_module():
    # A name that a module imports from elsewhere has a second import
    # path through it; only the benchmark's facade names keep one.
    second_paths = []
    for top in ("src", "tools", "examples", "tests"):
        for path in sorted((REPO / top).rglob("*.py")):
            relpath = path.relative_to(REPO).as_posix()
            for line, source, name in import_froms(path):
                origin = module_file(source) if source.startswith("repro") else None
                if origin is None or is_submodule(source, name):
                    continue
                if source in BENCHMARK_NAMES:
                    allowed = relpath in PINS_BENCHMARK_NAMES
                else:
                    allowed = name not in bound_by_import(origin)
                if not allowed:
                    second_paths.append(f"{relpath}:{line}: {name} from {source}")
    assert second_paths == []
