"""Tests for pseudo-threshold estimation."""

from __future__ import annotations

from functools import partial

import pytest
from sequential_search import sequential_pseudo_threshold

from repro.analysis.recursion import one_level
from repro.analysis.threshold import threshold
from repro.harness.threshold_finder import (
    _PROCESSOR_CACHE,
    cycle_processor,
    cycle_stage_spec,
    find_pseudo_threshold_adaptive,
    measure_cycle_errors,
    per_cycle_rate,
)
from repro.errors import AnalysisError
from repro.obs.metrics import counter
from repro.runtime.executor import Executor
from repro.runtime.spec import ExecutionPolicy, PointResult, RunSpec


def logical_error_per_cycle(gate_error, trials, cycles=1, seed=0):
    """One point of :func:`measure_cycle_errors`."""
    return measure_cycle_errors(((gate_error, seed),), trials, cycles)[0]


class TestLogicalErrorPerCycle:
    def test_zero_noise_zero_error(self):
        rate, failures = logical_error_per_cycle(0.0, trials=200, seed=0)
        assert rate == 0.0 and failures == 0

    def test_below_threshold_improves_on_physical(self):
        g = 1e-3  # well below rho = 1/165
        rate, _ = logical_error_per_cycle(g, trials=30000, seed=1)
        assert rate < g

    def test_far_above_threshold_is_worse_than_physical(self):
        g = 0.08
        rate, _ = logical_error_per_cycle(g, trials=4000, seed=2)
        assert rate > g

    def test_cycles_validated(self):
        with pytest.raises(AnalysisError):
            logical_error_per_cycle(0.01, trials=10, cycles=0)


class TestPerCycleRate:
    @pytest.mark.parametrize(
        "failures,trials,cycles,match",
        [
            (1, 10, 0, "cycles"),
            (1, 0, 1, "trials"),
            (-1, 10, 1, "failures"),
            (11, 10, 1, "failures"),
        ],
    )
    def test_refuses_out_of_range_arguments(self, failures, trials, cycles, match):
        # Regression: cycles or trials of 0 raised ZeroDivisionError,
        # and failures above trials returned a complex number.
        with pytest.raises(AnalysisError, match=match):
            per_cycle_rate(failures, trials, cycles)


class TestProcessorCache:
    def test_cycle_processor_is_memoised(self):
        _PROCESSOR_CACHE.clear()
        assert cycle_processor(1) is cycle_processor(1)
        assert cycle_processor(2) is not cycle_processor(1)

    def test_repeated_calls_reuse_circuit(self):
        _PROCESSOR_CACHE.clear()
        first = logical_error_per_cycle(1e-3, trials=500, seed=3)
        second = logical_error_per_cycle(1e-3, trials=500, seed=3)
        assert first == second


def analytic_search(monkeypatch, per_run, **kwargs):
    """The real search on an executor that returns exact expected counts.

    ``Executor.run`` answers each spec with ``round(per_run(g) * n)``
    failures — deterministic pseudo-Monte-Carlo whose Wilson intervals
    still shrink with ``n`` like real data.
    """

    def run(self, specs):
        results = []
        for spec in specs:
            failures = round(per_run(spec.noise.gate_error) * spec.trials)
            results.append(PointResult(failures, spec.trials, failures))
        return results

    monkeypatch.setattr(Executor, "run", run)
    return find_pseudo_threshold_adaptive(spec_builder=cycle_stage_spec, **kwargs)


def analytic_per_run(gate_error):
    """The exact one-level map over a cycle's two gates."""
    return 1.0 - (1.0 - one_level(gate_error, 11)) ** 2


class TestAdaptiveBisection:
    def test_matches_analytic_crossing(self, monkeypatch):
        # Bisection either converges or stops at the Wilson resolution
        # of the budget — both land within a percent of the true rho.
        result = analytic_search(
            monkeypatch, analytic_per_run,
            lower=1e-4, upper=0.5, trials=10**7, iterations=30,
        )
        assert result.estimate == pytest.approx(threshold(11), rel=1e-2)
        assert result.trials_spent > 0

    def test_cheap_points_use_reduced_budget(self, monkeypatch):
        result = analytic_search(
            monkeypatch, analytic_per_run,
            lower=1e-4, upper=0.5, trials=10**7, iterations=4,
        )
        # Every point of the analytic map separates decisively at the
        # first stage, so the spend is 1/16 of budget per evaluation.
        assert result.trials_spent == result.evaluations * (10**7 // 16)

    def test_resolution_stop(self, monkeypatch):
        # An evaluator pinned to the identity line can never separate:
        # the very first midpoint must stop the search and flag it.
        def below_until_mid(gate_error):
            if gate_error < 0.05:
                return 0.0
            if gate_error > 0.2:
                return 1.0
            return 1.0 - (1.0 - gate_error) ** 2

        result = analytic_search(
            monkeypatch, below_until_mid,
            lower=0.01, upper=0.4, trials=1000, iterations=8,
        )
        assert result.resolution_limited
        # Brackets, a decided midpoint at 0.205, then the stuck one.
        assert result.evaluations == 4
        assert result.estimate == pytest.approx(0.1075)

    def test_bracket_validation(self, monkeypatch):
        # Everywhere below identity: the upper endpoint is misplaced.
        with pytest.raises(AnalysisError, match="not above identity"):
            analytic_search(
                monkeypatch, lambda g: g * 0.5,
                lower=0.1, upper=0.2, trials=10**6,
            )
        # Everywhere above identity: the lower endpoint is misplaced.
        with pytest.raises(AnalysisError, match="not below identity"):
            analytic_search(
                monkeypatch, lambda g: min(g * 2.0, 1.0),
                lower=0.1, upper=0.2, trials=10**6,
            )

    def test_deterministic_for_a_seed(self, monkeypatch):
        kwargs = dict(lower=1e-4, upper=0.5, trials=10**6, iterations=6, seed=9)
        first = analytic_search(monkeypatch, analytic_per_run, **kwargs)
        second = analytic_search(monkeypatch, analytic_per_run, **kwargs)
        assert first == second


class TestStackedSearch:
    """Stacked rounds == the test-owned sequential reference."""

    @pytest.mark.parametrize("seed", [51, 7])
    def test_bit_identical_to_sequential(self, seed):
        # The tentpole guarantee: same bracket, same budget, same seed
        # -> the stacked round planner (speculative midpoints and all)
        # returns the IDENTICAL PseudoThreshold — estimate, bracket,
        # evaluations, trials_spent, resolution flag — as evaluating
        # the stages one solo run at a time.
        kwargs = dict(
            lower=2e-3, upper=8e-2, trials=4000, iterations=6, seed=seed,
            spec_builder=cycle_stage_spec,
        )
        sequential = sequential_pseudo_threshold(**kwargs)
        stacked = find_pseudo_threshold_adaptive(**kwargs)
        assert sequential == stacked

    def test_bit_identical_on_coarse_bracket(self):
        # A coarse localisation run that stops on iteration count (not
        # statistical resolution) exercises the no-escalation rounds.
        kwargs = dict(
            lower=1e-3, upper=0.256, trials=3000, iterations=3, seed=13,
            spec_builder=cycle_stage_spec,
        )
        sequential = sequential_pseudo_threshold(**kwargs)
        stacked = find_pseudo_threshold_adaptive(**kwargs)
        assert sequential == stacked

    def test_small_budget_stages(self):
        # A tiny budget makes the 1/16 stage 125 trials — two words,
        # the second one padded — next to full 2000-trial stages in
        # one stacked batch.  The result must still match the
        # sequential reference exactly.
        kwargs = dict(
            lower=2e-3, upper=8e-2, trials=2000, iterations=4, seed=3,
            spec_builder=cycle_stage_spec,
        )
        sequential = sequential_pseudo_threshold(**kwargs)
        stacked = find_pseudo_threshold_adaptive(
            policy=ExecutionPolicy(), **kwargs
        )
        assert sequential == stacked

    def test_multi_cycle_workload_contract(self):
        # cycles != 1 must be bound into the builder as well (the
        # search normalises rates by it); with the matching partial the
        # stacked search stays bit-identical to the sequential reference.
        kwargs = dict(
            lower=2e-3, upper=8e-2, trials=2000, iterations=3, seed=11,
            cycles=2, spec_builder=partial(cycle_stage_spec, cycles=2),
        )
        sequential = sequential_pseudo_threshold(**kwargs)
        stacked = find_pseudo_threshold_adaptive(**kwargs)
        assert sequential == stacked

    def test_deterministic(self):
        kwargs = dict(
            lower=2e-3, upper=8e-2, trials=3000, iterations=5, seed=21
        )
        first = find_pseudo_threshold_adaptive(
            spec_builder=cycle_stage_spec, **kwargs
        )
        second = find_pseudo_threshold_adaptive(
            spec_builder=cycle_stage_spec, **kwargs
        )
        assert first == second

    def test_rounds_collapse_solo_stage_runs(self, monkeypatch):
        # The canonical mc-threshold search: the sequential reference
        # runs one solo stage per evaluation (10), the stacked round
        # planner batches them into 6 executor calls with the same
        # result.
        kwargs = dict(
            lower=2e-3, upper=8e-2, trials=100_000, iterations=8, seed=51,
            spec_builder=cycle_stage_spec,
        )
        calls = []
        original = Executor.run

        def counting_run(self, specs):
            calls.append(len(specs))
            return original(self, specs)

        monkeypatch.setattr(Executor, "run", counting_run)
        sequential = sequential_pseudo_threshold(**kwargs)
        solo_runs = len(calls)
        calls.clear()
        stacked = find_pseudo_threshold_adaptive(**kwargs)
        assert sequential == stacked
        assert (solo_runs, len(calls)) == (10, 6)

    def test_bracket_validation(self):
        with pytest.raises(AnalysisError, match="not below identity"):
            find_pseudo_threshold_adaptive(
                spec_builder=cycle_stage_spec,
                lower=6e-2,
                upper=8e-2,
                trials=3000,
                seed=1,
            )

    @pytest.mark.parametrize(
        "lower,upper,trials,match",
        [(0.1, 0.05, 3000, "lower < upper"), (1e-3, 0.1, 0, "trials")],
        ids=["inverted-bracket", "no-trials"],
    )
    def test_arguments_validated_before_any_run(
        self, lower, upper, trials, match
    ):
        with pytest.raises(AnalysisError, match=match):
            find_pseudo_threshold_adaptive(
                spec_builder=cycle_stage_spec,
                lower=lower,
                upper=upper,
                trials=trials,
            )

    @pytest.mark.parametrize(
        "bad,match",
        [(dict(iterations=-1), "iterations"), (dict(z=-1.0), "z must be")],
        ids=["negative-iterations", "negative-z"],
    )
    def test_negative_arguments_refused_before_any_run(self, monkeypatch, bad, match):
        # Regression: iterations=-1 raised a bare IndexError from the
        # seed lookup, and z=-1 failed on a misleading bracket error.
        def no_run(self, specs):
            raise AssertionError("the search ran before validating")

        monkeypatch.setattr(Executor, "run", no_run)
        with pytest.raises(AnalysisError, match=match):
            find_pseudo_threshold_adaptive(
                spec_builder=cycle_stage_spec,
                lower=2e-3,
                upper=8e-2,
                trials=1000,
                **bad,
            )

    def test_one_stage_budget_never_speculates(self):
        # At trials=1 the ladder is one stage, which is the final one,
        # so the bracket runs without its first-midpoint prefetch
        # (which used to run a full-budget stage on speculation).
        kwargs = dict(
            lower=2e-3, upper=0.9, trials=1, iterations=3, seed=5,
            spec_builder=cycle_stage_spec,
        )
        speculated = counter("threshold.speculated")
        before = speculated.snapshot()
        stacked = find_pseudo_threshold_adaptive(**kwargs)
        assert speculated.snapshot() - before == 0
        assert stacked == sequential_pseudo_threshold(**kwargs)

    def test_exactly_one_workload_form(self):
        # The search takes a spec builder only; a positional evaluator
        # callable is not a second form.
        with pytest.raises(TypeError):
            find_pseudo_threshold_adaptive(
                measure_cycle_errors,
                lower=1e-3,
                upper=0.1,
                trials=100,
                spec_builder=cycle_stage_spec,
            )

    def test_required_arguments(self):
        with pytest.raises(TypeError, match="spec_builder"):
            find_pseudo_threshold_adaptive(lower=1e-3, upper=0.1, trials=100)
        with pytest.raises(TypeError, match="lower"):
            find_pseudo_threshold_adaptive(spec_builder=cycle_stage_spec)

    def test_mismatched_form_knobs_rejected(self):
        # An unknown knob must fail loudly, not be silently dropped;
        # parallel= is gone (pool width is policy.parallel).
        with pytest.raises(TypeError, match="parallel"):
            find_pseudo_threshold_adaptive(
                spec_builder=cycle_stage_spec,
                lower=1e-3,
                upper=0.1,
                trials=100,
                parallel=4,
            )

    def test_spec_builder_budget_mismatch_fails_loudly(self):
        def wrong_budget(gate_error, n_trials, seed) -> RunSpec:
            return cycle_stage_spec(gate_error, max(n_trials // 2, 1), seed)

        with pytest.raises(AnalysisError, match="stage budget"):
            find_pseudo_threshold_adaptive(
                spec_builder=wrong_budget,
                lower=2e-3,
                upper=8e-2,
                trials=1000,
                seed=1,
            )
