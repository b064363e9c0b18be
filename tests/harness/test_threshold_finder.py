"""Tests for pseudo-threshold estimation."""

from __future__ import annotations

import pytest

from repro.analysis.threshold import threshold
from repro.harness.threshold_finder import (
    _PROCESSOR_CACHE,
    _cycle_processor,
    cycle_stage_spec,
    find_pseudo_threshold_adaptive,
    measure_cycle_errors,
)
from repro.errors import AnalysisError
from repro.runtime import ExecutionPolicy, Executor, RunSpec


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


class TestProcessorCache:
    def test_cycle_processor_is_memoised(self):
        _PROCESSOR_CACHE.clear()
        assert _cycle_processor(1) is _cycle_processor(1)
        assert _cycle_processor(2) is not _cycle_processor(1)

    def test_repeated_calls_reuse_circuit(self):
        _PROCESSOR_CACHE.clear()
        first = logical_error_per_cycle(1e-3, trials=500, seed=3)
        second = logical_error_per_cycle(1e-3, trials=500, seed=3)
        assert first == second


def analytic_evaluator(gate_error, n_trials, seed):
    # Deterministic pseudo-Monte-Carlo: failures implied by the exact
    # one-level map, so Wilson intervals shrink with n like real data.
    from repro.analysis.recursion import one_level

    per_cycle = one_level(gate_error, 11)
    per_run = 1.0 - (1.0 - per_cycle) ** 2
    return per_cycle, round(per_run * n_trials)


class TestAdaptiveBisection:
    def test_matches_analytic_crossing(self):
        # Bisection either converges or stops at the Wilson resolution
        # of the budget — both land within a percent of the true rho.
        result = find_pseudo_threshold_adaptive(
            analytic_evaluator, lower=1e-4, upper=0.5, trials=10**7, iterations=30
        )
        assert result.estimate == pytest.approx(threshold(11), rel=1e-2)
        assert result.trials_spent > 0

    def test_cheap_points_use_reduced_budget(self):
        result = find_pseudo_threshold_adaptive(
            analytic_evaluator, lower=1e-4, upper=0.5, trials=10**7, iterations=4
        )
        # Every point of the analytic map separates decisively at the
        # first stage, so the spend is 1/16 of budget per evaluation.
        assert result.trials_spent == result.evaluations * (10**7 // 16)

    def test_resolution_stop(self):
        # An evaluator pinned to the identity line can never separate:
        # the very first midpoint must stop the search and flag it.
        def on_the_line(gate_error, n_trials, seed):
            per_run = 1.0 - (1.0 - gate_error) ** 2
            return gate_error, round(per_run * n_trials)

        def below_until_mid(gate_error, n_trials, seed):
            if gate_error < 0.05:
                return 0.0, 0
            if gate_error > 0.2:
                return 1.0, n_trials
            return on_the_line(gate_error, n_trials, seed)

        result = find_pseudo_threshold_adaptive(
            below_until_mid, lower=0.01, upper=0.4, trials=1000, iterations=8
        )
        assert result.resolution_limited
        # Brackets, a decided midpoint at 0.205, then the stuck one.
        assert result.evaluations == 4
        assert result.estimate == pytest.approx(0.1075)

    def test_bracket_validation(self):
        with pytest.raises(AnalysisError):
            find_pseudo_threshold_adaptive(
                lambda g, n, s: (g * 0.5, round(g * 0.5 * n)),
                lower=0.1,
                upper=0.2,
                trials=10**6,
            )
        with pytest.raises(AnalysisError):
            find_pseudo_threshold_adaptive(
                lambda g, n, s: (min(g * 2.0, 1.0), round(min(g * 2.0, 1.0) * n)),
                lower=0.1,
                upper=0.2,
                trials=10**6,
            )

    def test_deterministic_for_a_seed(self):
        kwargs = dict(lower=1e-4, upper=0.5, trials=10**6, iterations=6, seed=9)
        first = find_pseudo_threshold_adaptive(analytic_evaluator, **kwargs)
        second = find_pseudo_threshold_adaptive(analytic_evaluator, **kwargs)
        assert first == second


def cycle_stage_evaluator(gate_error, n_trials, seed):
    """The sequential form of the stacked search's cycle workload."""
    return measure_cycle_errors(((gate_error, seed),), n_trials)[0]


class TestStackedSearch:
    """The spec_builder path: stacked rounds == sequential evaluation."""

    @pytest.mark.parametrize("seed", [51, 7])
    def test_bit_identical_to_sequential(self, seed):
        # The tentpole guarantee: same bracket, same budget, same seed
        # -> the stacked round planner (speculative midpoints and all)
        # returns the IDENTICAL PseudoThreshold — estimate, bracket,
        # evaluations, trials_spent, resolution flag — as evaluating
        # the stages one solo run at a time.
        kwargs = dict(
            lower=2e-3, upper=8e-2, trials=4000, iterations=6, seed=seed
        )
        sequential = find_pseudo_threshold_adaptive(
            cycle_stage_evaluator, **kwargs
        )
        stacked = find_pseudo_threshold_adaptive(
            spec_builder=cycle_stage_spec, **kwargs
        )
        assert sequential == stacked

    def test_bit_identical_on_coarse_bracket(self):
        # A coarse localisation run that stops on iteration count (not
        # statistical resolution) exercises the no-escalation rounds.
        kwargs = dict(
            lower=1e-3, upper=0.256, trials=3000, iterations=3, seed=13
        )
        sequential = find_pseudo_threshold_adaptive(
            cycle_stage_evaluator, **kwargs
        )
        stacked = find_pseudo_threshold_adaptive(
            spec_builder=cycle_stage_spec, **kwargs
        )
        assert sequential == stacked

    def test_small_budget_stages(self):
        # A tiny budget makes the 1/16 stage 125 trials — two words,
        # the second one padded — next to full 2000-trial stages in
        # one stacked batch.  The result must still match the
        # sequential path exactly.
        kwargs = dict(
            lower=2e-3, upper=8e-2, trials=2000, iterations=4, seed=3
        )
        sequential = find_pseudo_threshold_adaptive(
            cycle_stage_evaluator, **kwargs
        )
        stacked = find_pseudo_threshold_adaptive(
            spec_builder=cycle_stage_spec,
            policy=ExecutionPolicy(),
            **kwargs,
        )
        assert sequential == stacked

    def test_multi_cycle_workload_contract(self):
        # cycles != 1 must be bound into the builder as well (the
        # search normalises rates by it); with the matching partial the
        # stacked search stays bit-identical to the sequential form.
        from functools import partial

        kwargs = dict(
            lower=2e-3, upper=8e-2, trials=2000, iterations=3, seed=11,
            cycles=2,
        )
        sequential = find_pseudo_threshold_adaptive(
            lambda g, n, s: measure_cycle_errors(((g, s),), n, cycles=2)[0],
            **kwargs,
        )
        stacked = find_pseudo_threshold_adaptive(
            spec_builder=partial(cycle_stage_spec, cycles=2), **kwargs
        )
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
        # The canonical mc-threshold search: the sequential form runs
        # one solo stage per evaluation (10), the stacked round planner
        # batches them into 6 executor calls with the same result.
        kwargs = dict(
            lower=2e-3, upper=8e-2, trials=100_000, iterations=8, seed=51
        )
        solo_runs = []

        def counting_stage(gate_error, n_trials, seed):
            solo_runs.append(n_trials)
            return cycle_stage_evaluator(gate_error, n_trials, seed)

        sequential = find_pseudo_threshold_adaptive(counting_stage, **kwargs)
        calls = []
        original = Executor.run

        def counting_run(self, specs):
            calls.append(len(specs))
            return original(self, specs)

        monkeypatch.setattr(Executor, "run", counting_run)
        stacked = find_pseudo_threshold_adaptive(
            spec_builder=cycle_stage_spec, **kwargs
        )
        assert sequential == stacked
        assert (len(solo_runs), len(calls)) == (10, 6)

    def test_bracket_validation(self):
        with pytest.raises(AnalysisError, match="not below identity"):
            find_pseudo_threshold_adaptive(
                spec_builder=cycle_stage_spec,
                lower=6e-2,
                upper=8e-2,
                trials=3000,
                seed=1,
            )

    def test_exactly_one_workload_form(self):
        with pytest.raises(AnalysisError, match="exactly one"):
            find_pseudo_threshold_adaptive(
                cycle_stage_evaluator,
                lower=1e-3,
                upper=0.1,
                trials=100,
                spec_builder=cycle_stage_spec,
            )
        with pytest.raises(AnalysisError, match="exactly one"):
            find_pseudo_threshold_adaptive(lower=1e-3, upper=0.1, trials=100)

    def test_required_arguments(self):
        with pytest.raises(AnalysisError, match="required"):
            find_pseudo_threshold_adaptive(spec_builder=cycle_stage_spec)

    def test_mismatched_form_knobs_rejected(self):
        # The other form's knob must fail loudly, not be silently
        # dropped; parallel= is gone from both forms (pool width is
        # policy.parallel).
        with pytest.raises(TypeError, match="parallel"):
            find_pseudo_threshold_adaptive(
                spec_builder=cycle_stage_spec,
                lower=1e-3,
                upper=0.1,
                trials=100,
                parallel=4,
            )
        with pytest.raises(AnalysisError, match="spec_builder"):
            find_pseudo_threshold_adaptive(
                cycle_stage_evaluator,
                lower=1e-3,
                upper=0.1,
                trials=100,
                policy=ExecutionPolicy(),
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
