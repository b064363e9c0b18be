"""Self-tests of the benchmark, at smoke scale.

Each workload runs once untraced and once traced through ``run.py
--smoke`` (2k-trial budgets, one set-up probe, one measured iteration),
in subprocesses, on a seed no default uses.  Run with::

    PYTHONPATH=src python -m pytest -q perfbench/
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from perfbench import layers
from perfbench.speed import REFERENCE_S, Parts, at_reference

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]
#: Neither default seed (17 for the sweeps, 51 for the search).
UNUSED_SEED = 7
#: Metrics measured once per set-up probe rather than per iteration.
SETUP_METRICS = set(layers.SETUP_LAYERS) | {"obs.trace_overhead_ms"}


def run_bench(workload: str, trace: int, *extra: str, root: Path = ROOT, seed: int = UNUSED_SEED):
    return subprocess.run(
        [
            sys.executable, str(root / "perfbench" / "run.py"),
            "--workload", workload, "--seed", str(seed), "--seconds", "0",
            "--trace", str(trace), "--smoke", *extra,
        ],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=600,
        check=False,
    )


def output_lines(completed) -> tuple[dict, dict]:
    """The details line and the result line of a finished run."""
    details, result = completed.stdout.strip().splitlines()[-2:]
    return json.loads(details), json.loads(result)


@pytest.fixture(scope="module")
def runs():
    cases = [(workload, trace) for workload in WORKLOADS for trace in (0, 1)]
    with ThreadPoolExecutor(max_workers=2) as pool:
        completed = list(pool.map(lambda case: run_bench(*case), cases))
    return dict(zip(cases, completed))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_checks_pass_on_an_unused_seed(runs, workload, trace):
    completed = runs[workload, trace]
    assert completed.returncode == 0, completed.stderr
    details, result = output_lines(completed)
    assert details["seed"] == UNUSED_SEED
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_named_metric_is_emitted_with_its_unit(runs, workload, trace):
    _, result = output_lines(runs[workload, trace])
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [metric["name"] for metric in declared]
    for metric in declared:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], (int, float)) and not isinstance(emitted["value"], bool)
        if not trace:
            assert emitted["value"] > 0, metric["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_self_times_fit_in_the_traced_wall(runs, workload):
    details, result = output_lines(runs[workload, 1])
    self_ms = {
        name: emitted["value"]
        for name, emitted in result["metrics"].items()
        if emitted["unit"] == "ms" and name not in SETUP_METRICS
    }
    # A span billed twice, or children that outlast their parent, leave
    # a negative self time behind.
    assert all(value >= 0 for value in self_ms.values()), self_ms
    # Every span under the iteration maps to a layer: an unmapped span's
    # time would land in unattributed_ms.
    assert details["unattributed_ms"] <= 0.05 * details["traced_mean_ms"]
    assert 0 < sum(self_ms.values()) <= details["traced_mean_ms"]


def test_traced_counts_repeat_exactly(runs):
    _, first = output_lines(runs["threshold-search", 1])
    _, second = output_lines(run_bench("threshold-search", 1))
    counts = [metric["name"] for metric in BENCHMARK["per_layer"] if metric["unit"] == "count"]
    assert [first["metrics"][name] for name in counts] == [second["metrics"][name] for name in counts]
    assert first["metrics"]["harness.stage_evaluations"]["value"] > 0


def test_a_corrupted_output_raises_failed_instead_of_crashing():
    completed = run_bench("sweep-sparse", 0, "--corrupt-output")
    assert completed.returncode == 1
    _, result = output_lines(completed)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1
    assert result["metrics"]["wall_ms.p50_at_ref"]["value"] > 0


def test_a_checkout_without_the_program_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    completed = run_bench("sweep-sparse", 0, root=tmp_path)
    assert completed.returncode != 0
    assert completed.stdout == ""


def test_self_times_bill_children_to_their_own_layers():
    def span(name, duration_ns, *children, **attrs):
        return {"name": name, "duration_ns": duration_ns, "attrs": attrs, "children": list(children)}

    root = span(
        "bench.iteration", 10_000_000,
        span("executor.run", 6_000_000, span("executor.group.draw", 4_000_000)),
        span("bench.experiment", 3_000_000, id="fig2"),
    )
    assert layers.self_times(root) == {
        "unattributed_ms": 1.0,
        "runtime.run_ms": 2.0,
        "noise.draw_ms": 4.0,
        "harness.experiment.fig2_ms": 3.0,
    }


def test_parts_rescale_by_the_loops_around_them_and_leave_the_loops_out():
    parts = Parts()
    with parts.timed("a"):
        pass
    with parts.timed("b"):
        pass
    assert list(parts.at_reference) == ["a", "b"]
    # The loops (before "a", between the parts, after "b") are in no part.
    assert sum(parts.seconds.values()) < parts.loop_seconds
    assert at_reference(2.0, 1.0, 3.0) == 2.0 * REFERENCE_S / 2.0

    untraced = Parts(reference=False)
    with untraced.timed("a"):
        pass
    assert untraced.at_reference == untraced.seconds
    assert untraced.loop_seconds == 0.0


NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_follows_its_contract():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert all((ROOT / path).is_dir() for path in BENCHMARK["paths"])
    assert 2 <= len(BENCHMARK["workloads"]) <= 8
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in BENCHMARK["workloads"])
    names = [m["name"] for group in ("workloads", "end_to_end", "per_layer") for m in BENCHMARK[group]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    metrics = BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]
    assert all(UNIT.match(m["unit"]) and m["better"] in ("higher", "lower") for m in metrics)
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert all(layers.is_known(m["name"]) for m in BENCHMARK["per_layer"])
