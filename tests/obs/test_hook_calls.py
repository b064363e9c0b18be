"""Acceptance: observability costs a fixed number of hook calls per run.

``repro.obs`` instrumentation sits on the executor's hot path — span
context managers around every group and phase, counters on every run —
and its license to live there is that the cost of a disabled hook is a
constant per call.  What keeps the overhead negligible is therefore
the *number* of hook calls: it must be a small constant per executor
run and group, independent of the trial count and of the circuit's
slot count (no hook may sit inside the per-slot or per-trial loops).

This is pinned deterministically — by counting every span opened
through the executor's ``trace`` and every counter increment made
during one ``Executor.run`` — rather than by a wall-clock ratio, which
on a shared host is below the run-to-run spread.
"""

from __future__ import annotations

from repro.coding import recovery_circuit
from repro.noise import NoiseModel
from repro.obs.metrics import Counter
from repro.runtime import (
    ExecutionPolicy,
    Executor,
    MajorityMismatchObservable,
    RunSpec,
)
import repro.runtime.executor as executor_module

RECOVERY_INPUT = (1, 1, 1) + (0,) * 6
POINTS = 4
OBSERVABLE = MajorityMismatchObservable((0, 1, 2), 1)


def _specs(circuit, trials):
    return [
        RunSpec(
            circuit=circuit,
            input_bits=RECOVERY_INPUT,
            observable=OBSERVABLE,
            noise=NoiseModel(gate_error=0.01),
            trials=trials,
            seed=1000 + index,
        )
        for index in range(POINTS)
    ]


class _InertSpan:
    def set(self, **attrs):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


def _hook_calls(monkeypatch, specs) -> list[str]:
    """Every span and counter increment one ``Executor.run`` makes."""
    policy = ExecutionPolicy(parallel=None)
    Executor(policy).run(specs)  # warm: compile-cache hits from here on
    calls: list[str] = []
    span = _InertSpan()
    original_inc = Counter.inc

    def counting_trace(name, **attrs):
        calls.append(f"span {name}")
        return span

    def counting_inc(self, amount=1):
        calls.append(f"counter {self.name}")
        original_inc(self, amount)

    with monkeypatch.context() as patch:
        patch.setattr(executor_module, "trace", counting_trace)
        patch.setattr(Counter, "inc", counting_inc)
        Executor(policy).run(specs)
    return calls


def test_obs_hook_calls_do_not_scale_with_work(monkeypatch):
    from repro.obs import tracing_enabled

    assert not tracing_enabled(), "the count needs tracing disabled"
    cycle = recovery_circuit()
    three_cycles = cycle + cycle + cycle
    small = _hook_calls(monkeypatch, _specs(cycle, 2_000))
    large = _hook_calls(monkeypatch, _specs(cycle, 100_000))
    deep = _hook_calls(monkeypatch, _specs(three_cycles, 2_000))
    assert small == large, "hook calls grew with the trial count"
    assert small == deep, "hook calls grew with the slot count"
    # One run of one stacked group: the run span, the group span and
    # its three phase spans, plus one increment per executor counter
    # and the compile-cache hit.
    assert sorted(small) == sorted(
        [
            "span executor.run",
            "span executor.group",
            "span executor.group.draw",
            "span executor.group.apply",
            "span executor.group.decode",
            "counter executor.runs",
            "counter executor.groups",
            "counter executor.stacked_points",
            "counter compile.cache.hit",
        ]
    ), small
