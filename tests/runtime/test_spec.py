"""Tests for RunSpec / ExecutionPolicy / PointResult / observables."""

from __future__ import annotations

from dataclasses import fields

import numpy as np
import pytest

from repro.core.circuit import Circuit
from repro.core.bitplane import BitplaneState
from repro.errors import SimulationError
from repro.noise.model import NoiseModel
from repro.runtime import (
    DecodeObservable,
    DecodedMismatchObservable,
    ExecutionPolicy,
    PointResult,
    PredicateObservable,
    RunSpec,
    as_observable,
)


def all_ones_predicate(states):
    return states.columns(range(states.n_wires)).all(axis=1)


def make_spec(**overrides):
    values = dict(
        circuit=Circuit(3).maj(0, 1, 2),
        input_bits=(1, 0, 1),
        observable=all_ones_predicate,
        noise=NoiseModel(gate_error=0.01),
        trials=100,
        seed=0,
    )
    values.update(overrides)
    return RunSpec(**values)


class TestRunSpec:
    def test_input_bits_coerced_to_tuple(self):
        spec = make_spec(input_bits=[1, 0, 1])
        assert spec.input_bits == (1, 0, 1)

    def test_wire_count_validated(self):
        with pytest.raises(SimulationError):
            make_spec(input_bits=(1, 0))

    def test_trials_validated(self):
        with pytest.raises(SimulationError):
            make_spec(trials=0)

    def test_observable_protocol_validated(self):
        with pytest.raises(SimulationError):
            make_spec(observable=42)

    def test_specs_are_hashable_values(self):
        # Frozen specs with equal content must compare equal.
        assert make_spec() == make_spec()


class TestObservables:
    def test_callable_is_wrapped(self):
        wrapped = as_observable(all_ones_predicate)
        assert isinstance(wrapped, PredicateObservable)
        states = BitplaneState.from_rows([(1, 1, 1), (0, 1, 1)])
        assert wrapped.count_failures(states) == 1

    def test_count_failures_objects_pass_through(self):
        observable = PredicateObservable(all_ones_predicate)
        assert as_observable(observable) is observable

    def test_predicate_shape_validated(self):
        wrapped = as_observable(lambda states: np.zeros((2, 2), dtype=bool))
        with pytest.raises(SimulationError):
            wrapped.count_failures(BitplaneState.from_rows([(1, 0)]))

    def test_decode_observable_delegates(self):
        # The observable counts the trial bits of the decoder's failure
        # plane; padding bits beyond the batch are ignored.
        class Decoder:
            def decode_failure_plane(self, states, expected):
                plane = 0b1011 if expected == (1,) else 0
                return np.full(states.n_words, plane | (1 << 63), np.uint64)

        states = BitplaneState.zeros(1, 4)
        assert DecodeObservable(Decoder(), (1,)).count_failures(states) == 3
        assert DecodeObservable(Decoder(), (0,)).count_failures(states) == 0


def stacked_decode_fixture(decoder, logical, trials_per_window):
    """A stacked plane array of noisy copies of one logical word."""
    from repro.core.bitplane import BitplaneState, words_for

    rng = np.random.default_rng(5)
    windows = []
    offset = 0
    rows = []
    for trials in trials_per_window:
        windows.append((offset, trials))
        offset += words_for(trials)
        word = decoder.physical_input(logical)
        block = np.tile(np.asarray(word, dtype=np.uint8), (words_for(trials) * 64, 1))
        flips = rng.random(block.shape) < 0.2
        rows.append(block ^ flips)
    states = BitplaneState.from_rows(np.concatenate(rows))
    return states, windows


def assert_stacked_matches_per_window(observable, states, windows):
    """One stacked decode equals a solo decode of every window view."""
    from repro.core.bitplane import BitplaneState, words_for

    stacked = observable.count_failures_stacked(states, windows)
    for (offset, trials), count in zip(windows, stacked):
        window = BitplaneState(
            states.planes[:, offset:offset + words_for(trials)], trials
        )
        assert observable.count_failures(window) == count


class TestStackedDecode:
    def test_matches_per_window_counts(self):
        # One decode pass over the whole stacked array must equal a
        # solo decode of every window view, including non-word-aligned
        # windows whose padding carries other (noisy) data.
        from repro.coding.logical import LogicalProcessor

        processor = LogicalProcessor(1, include_resets=True)
        states, windows = stacked_decode_fixture(processor, (1,), (130, 64, 77))
        assert_stacked_matches_per_window(
            DecodeObservable(processor, (1,)), states, windows
        )

    def test_decoded_mismatch_matches_per_window_counts(self):
        from repro.coding.logical import LogicalProcessor

        computation = LogicalProcessor(2, level=2)
        states, windows = stacked_decode_fixture(
            computation, (1, 0), (130, 64, 77)
        )
        observable = DecodedMismatchObservable(computation, (1, 0))
        assert_stacked_matches_per_window(observable, states, windows)
        assert sum(observable.count_failures_stacked(states, windows)) > 0


class TestExecutionPolicy:
    def test_defaults(self):
        policy = ExecutionPolicy()
        assert policy.parallel is None
        assert policy.trials == 100_000

    def test_engine_is_not_a_field(self):
        # One Monte-Carlo engine and backend, always fused and cached:
        # ``engine``, ``backend``, ``fuse`` and ``compile_cache`` are
        # read-only constants, and no remaining field can change a
        # result.
        assert [field.name for field in fields(ExecutionPolicy)] == [
            "parallel", "trials", "trace",
        ]
        policy = ExecutionPolicy()
        assert policy.engine == "bitplane" and policy.backend == "numpy"
        assert policy.fuse is True and policy.compile_cache is True
        for knob, value in (
            ("engine", "bitplane"), ("backend", "numpy"), ("fuse", False),
            ("compile_cache", False),
        ):
            with pytest.raises(TypeError):
                ExecutionPolicy(**{knob: value})

    def test_from_env_reads_every_knob(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL", "3")
        monkeypatch.setenv("REPRO_TRIALS", "1234")
        monkeypatch.setenv("REPRO_TRACE", "stderr")
        policy = ExecutionPolicy.from_env()
        assert policy == ExecutionPolicy(parallel=3, trials=1234, trace="stderr")

    def test_from_env_parallel_max(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL", "max")
        assert ExecutionPolicy.from_env().parallel is True

    def test_from_env_defaults_yield_to_environment(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRIALS", raising=False)
        assert ExecutionPolicy.from_env(trials=555).trials == 555
        monkeypatch.setenv("REPRO_TRIALS", "777")
        assert ExecutionPolicy.from_env(trials=555).trials == 777

    def test_from_env_unset_environment_keeps_defaults(self, monkeypatch):
        for knob in ("REPRO_PARALLEL", "REPRO_TRIALS", "REPRO_TRACE"):
            monkeypatch.delenv(knob, raising=False)
        assert ExecutionPolicy.from_env() == ExecutionPolicy()


class TestPointResult:
    def test_fractions(self):
        result = PointResult(failures=25, trials=100, faulted_trials=40)
        assert result.failure_fraction == 0.25
        assert result.fault_fraction == 0.40
