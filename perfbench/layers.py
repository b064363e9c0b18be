"""Per-layer metrics of one traced iteration.

Layers are named after ``src/repro`` modules.  Times are self times: a
span's duration minus the part its child spans cover, billed to the
layer that owns the span.  Counts are per-iteration deltas of the
``repro.obs`` counters.  The spans come from two places: the ones
``repro`` records itself (executor, threshold search, jobs), and the
``bench.*`` spans this benchmark opens around public calls that have no
span of their own (``ResultStore.get``/``put``, ``run_experiment``).
"""

from __future__ import annotations

import functools
import re

from repro.obs import trace

#: Span name -> the layer metric its self time is billed to.
SPAN_LAYERS = {
    "executor.run": "runtime.run_ms",
    "executor.group": "runtime.run_ms",
    "executor.group.draw": "noise.draw_ms",
    "executor.group.apply": "backends.apply_ms",
    "executor.group.decode": "coding.decode_ms",
    "threshold.search": "harness.search_ms",
    "threshold.bracket": "harness.search_ms",
    "threshold.round": "harness.search_ms",
    "jobs.submit": "jobs.submit_ms",
    "jobs.run": "jobs.run_ms",
    "jobs.shard": "jobs.shard_ms",
    "jobs.collect": "jobs.collect_ms",
    "bench.store.get": "jobs.store.get_ms",
    "bench.store.put": "jobs.store.put_ms",
}

#: Layer count metric -> the ``repro.obs`` counter it reads.
COUNTERS = {
    "core.compile_cache.hit": "compile.cache.hit",
    "core.compile_cache.miss": "compile.cache.miss",
    "runtime.runs": "executor.runs",
    "runtime.groups": "executor.groups",
    "runtime.stacked_points": "executor.stacked_points",
    "runtime.legacy_points": "executor.legacy_points",
    "harness.stage_evaluations": "threshold.stage_evaluations",
    "harness.speculated": "threshold.speculated",
    "harness.speculation_wasted": "threshold.speculation_wasted",
    "jobs.store.hit": "jobs.store.hit",
    "jobs.store.miss": "jobs.store.miss",
    "jobs.store.put": "jobs.store.put",
    "jobs.cache.simulated_points": "jobs.cache.simulated_points",
    "jobs.cache.served_points": "jobs.cache.served_points",
}

#: Layer metric -> the set-up probe timing it reports (cold, per probe).
SETUP_LAYERS = {
    "import.entry_ms": "import_ms",
    "core.compile_ms": "compile_ms",
    "backends.prepare_ms": "prepare_ms",
}

#: Metrics computed from other measurements rather than read directly.
DERIVED = ("harness.speculation_useful_ratio", "jobs.store.bytes_written", "obs.trace_overhead_ms")

_EXPERIMENT = re.compile(r"^harness\.experiment\.[a-z0-9-]+_ms$")


def is_known(metric: str) -> bool:
    """Whether this module can produce ``metric``."""
    return (
        metric in SPAN_LAYERS.values()
        or metric in COUNTERS
        or metric in SETUP_LAYERS
        or metric in DERIVED
        or bool(_EXPERIMENT.match(metric))
    )


def _span_layer(span: dict) -> str:
    if span["name"] == "bench.experiment":
        return f"harness.experiment.{span['attrs']['id']}_ms"
    return SPAN_LAYERS.get(span["name"], "unattributed_ms")


def self_times(root: dict) -> dict[str, float]:
    """Self time in ms per layer over the span tree under ``root``.

    Time no known span claims — the root's own, say — is billed to
    ``unattributed_ms``, so the values always sum to the root's duration.
    """
    totals: dict[str, float] = {}
    stack = [root]
    while stack:
        span = stack.pop()
        children = span["children"]
        own_ns = span["duration_ns"] - sum(child["duration_ns"] for child in children)
        layer = _span_layer(span)
        totals[layer] = totals.get(layer, 0.0) + own_ns / 1e6
        stack.extend(children)
    return totals


def iteration_root(document: dict) -> dict:
    """The single ``bench.iteration`` span of a one-iteration trace."""
    roots = [span for span in document["spans"] if span["name"] == "bench.iteration"]
    if len(roots) != 1:
        raise ValueError(f"expected one bench.iteration span, found {len(roots)}")
    return roots[0]


def iteration_layers(root: dict, counters: dict[str, int], extra: dict[str, int]) -> dict[str, float]:
    """Every per-iteration layer metric of one traced iteration."""
    values: dict[str, float] = self_times(root)
    for metric, name in COUNTERS.items():
        values[metric] = counters.get(name, 0)
    speculated = values["harness.speculated"]
    useful = speculated - values["harness.speculation_wasted"]
    values["harness.speculation_useful_ratio"] = useful / speculated if speculated else 0.0
    values.update(extra)
    return values


def counter_deltas(before: dict[str, int], after: dict[str, int]) -> dict[str, int]:
    """Per-counter increase between two ``metrics_snapshot()['counters']``."""
    return {name: value - before.get(name, 0) for name, value in after.items()}


def _spanned(method, name: str):
    @functools.wraps(method)
    def wrapper(*args, **kwargs):
        with trace(name):
            return method(*args, **kwargs)

    return wrapper


def instrument_store() -> None:
    """Open a ``bench.store.get``/``put`` span around every store call."""
    from repro.jobs import ResultStore

    for method in ("get", "put"):
        setattr(ResultStore, method, _spanned(getattr(ResultStore, method), f"bench.store.{method}"))


def instrument_experiments(report_module, parts) -> None:
    """Time each experiment the report runs into ``parts``, inside a
    ``bench.experiment`` span."""
    run_experiment = report_module.run_experiment

    def timed(experiment_id):
        with parts.timed(experiment_id), trace("bench.experiment", id=experiment_id):
            return run_experiment(experiment_id)

    report_module.run_experiment = timed
