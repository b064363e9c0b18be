"""Tests for RunSpec / ExecutionPolicy / PointResult / observables."""

from __future__ import annotations

from dataclasses import fields

import numpy as np
import pytest

from repro.core.circuit import Circuit
from repro.core.bitplane import BitplaneState, count_trial_ones, unpack_words
from repro.errors import SimulationError
from repro.noise.model import NoiseModel
from repro.runtime.spec import (
    DecodeObservable,
    DecodedMismatchObservable,
    ExecutionPolicy,
    MajorityMismatchObservable,
    PointResult,
    PredicateObservable,
    RunSpec,
    WireMismatchObservable,
)


def all_ones_predicate(states):
    return states.columns(range(states.n_wires)).all(axis=1)


def make_spec(**overrides):
    values = dict(
        circuit=Circuit(3).maj(0, 1, 2),
        input_bits=(1, 0, 1),
        observable=PredicateObservable(all_ones_predicate),
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

    @pytest.mark.parametrize(
        "trials",
        [100.5, 100.0, True, "100", None],
        ids=["float", "integral-float", "bool", "string", "none"],
    )
    def test_non_integer_trials_refused(self, trials):
        # A float used to build and then fail deep in the broadcast; a
        # bool ran one trial but keyed as ``true``, not ``1``.
        with pytest.raises(SimulationError, match="trials must be an int"):
            make_spec(trials=trials)

    @pytest.mark.parametrize(
        "trials",
        [np.int64(100), np.int32(100), np.uint16(100)],
        ids=["int64", "int32", "uint16"],
    )
    def test_numpy_integer_trials_stored_as_int(self, trials):
        spec = make_spec(trials=trials)
        assert type(spec.trials) is int
        assert spec == make_spec(trials=100)

    @pytest.mark.parametrize(
        "seed",
        [True, False, -5, np.int64(-1)],
        ids=["true", "false", "negative", "numpy-negative"],
    )
    def test_bool_or_negative_seed_refused(self, seed):
        # ``True`` ran like seed 1 but keyed as ``true``; a negative
        # seed built and then failed in NumPy's seeding at run time.
        with pytest.raises(SimulationError, match="seed must be a non-negative"):
            make_spec(seed=seed)

    @pytest.mark.parametrize("seed", [0, 7, None, np.uint64(3)])
    def test_non_negative_int_or_none_seed_accepted(self, seed):
        assert make_spec(seed=seed).seed == seed

    def test_observable_protocol_validated(self):
        with pytest.raises(SimulationError):
            make_spec(observable=42)

    def test_bare_callable_refused(self):
        # A predicate is not an observable until it is wrapped: the
        # error names the wrapper.
        with pytest.raises(SimulationError, match="PredicateObservable"):
            make_spec(observable=all_ones_predicate)

    def test_specs_are_hashable_values(self):
        # Frozen specs with equal content must compare equal.
        assert make_spec() == make_spec()


class TestObservables:
    def test_predicate_plane_packs_the_verdicts(self):
        observable = PredicateObservable(all_ones_predicate)
        states = BitplaneState.from_rows([(1, 1, 1), (0, 1, 1), (1, 1, 1)])
        plane = observable.failure_plane(states)
        assert plane.dtype == np.uint64 and plane.shape == (1,)
        assert unpack_words(plane, 3).tolist() == [1, 0, 1]

    def test_predicate_shape_validated(self):
        observable = PredicateObservable(
            lambda states: np.zeros((2, 2), dtype=bool)
        )
        with pytest.raises(SimulationError, match="predicate returned shape"):
            observable.failure_plane(BitplaneState.from_rows([(1, 0)]))

    def test_decode_observable_delegates(self):
        # The observable returns the decoder's failure plane; counting
        # its trial bits ignores the padding bits beyond the batch.
        class Decoder:
            def decode_failure_plane(self, states, expected):
                plane = 0b1011 if expected == (1,) else 0
                return np.full(states.n_words, plane | (1 << 63), np.uint64)

        states = BitplaneState.zeros(1, 4)
        for expected, count in (((1,), 3), ((0,), 0)):
            plane = DecodeObservable(Decoder(), expected).failure_plane(states)
            assert states.count_ones(plane) == count

    def test_decode_observable_expected_coerced_to_tuple(self):
        observable = DecodeObservable(object(), [1, 0, 1])
        assert observable.expected == (1, 0, 1)
        assert observable == DecodeObservable(observable.decoder, (1, 0, 1))


def random_states(trials, n_wires=5, seed=0):
    """Random planes, padding bits included: only trial bits may count."""
    rng = np.random.default_rng(seed)
    planes = rng.integers(
        0, 2**64, size=(n_wires, (trials + 63) // 64), dtype=np.uint64
    )
    return BitplaneState(planes, trials)


def old_majority_predicate(states, wires, expected):
    """The per-trial definition the packed majority observable replaced."""
    return states.majority_of(wires) != expected


def old_any_wire_predicate(states, wires, expected_bits):
    """The per-trial definition the packed wire observable replaced."""
    differs = np.zeros(states.trials, dtype=bool)
    for wire, bit in zip(wires, expected_bits, strict=True):
        differs |= states.column(wire) != bit
    return differs


class TestPackedObservables:
    """The packed observables against the byte-per-trial definitions."""

    @pytest.mark.parametrize("trials", [1, 63, 65, 777])
    @pytest.mark.parametrize("wires", [(0,), (0, 1, 2), (4, 1, 3, 0, 2)])
    @pytest.mark.parametrize("expected", [0, 1])
    def test_majority_mismatch_equals_the_old_predicate(
        self, trials, wires, expected
    ):
        states = random_states(trials, seed=trials)
        observable = MajorityMismatchObservable(list(wires), expected)
        assert observable.wires == wires
        plane = observable.failure_plane(states)
        reference = old_majority_predicate(states, wires, expected)
        assert (unpack_words(plane, trials) == reference).all()
        assert count_trial_ones(plane, trials) == int(reference.sum())

    @pytest.mark.parametrize("trials", [1, 63, 65, 777])
    @pytest.mark.parametrize(
        "wires, expected_bits",
        [((2,), (0,)), ((2,), (1,)), ((0, 1, 2), (1, 0, 1)),
         ((4, 0, 3), (0, 0, 0))],
    )
    def test_wire_mismatch_equals_the_old_predicate(
        self, trials, wires, expected_bits
    ):
        states = random_states(trials, seed=trials + 1)
        observable = WireMismatchObservable(iter(wires), list(expected_bits))
        assert observable.wires == wires
        assert observable.expected_bits == expected_bits
        plane = observable.failure_plane(states)
        reference = old_any_wire_predicate(states, wires, expected_bits)
        assert (unpack_words(plane, trials) == reference).all()
        assert count_trial_ones(plane, trials) == int(reference.sum())

    @pytest.mark.parametrize(
        "wires, expected_bits", [((), ()), ((0, 1), (1,)), ((0,), (1, 0))]
    )
    def test_wire_mismatch_needs_one_bit_per_wire(self, wires, expected_bits):
        with pytest.raises(SimulationError, match="one expected bit per wire"):
            WireMismatchObservable(wires, expected_bits)

    def test_packed_observables_are_picklable_values(self):
        import pickle

        for observable in (
            MajorityMismatchObservable((0, 1, 2), 1),
            WireMismatchObservable((0, 1), (1, 0)),
        ):
            assert pickle.loads(pickle.dumps(observable)) == observable


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
    """Windows of one stacked failure plane equal solo planes' counts.

    Returns the per-window counts.
    """
    from repro.core.bitplane import BitplaneState, words_for

    plane = observable.failure_plane(states)
    counts = []
    for offset, trials in windows:
        words = words_for(trials)
        count = count_trial_ones(plane[offset:offset + words], trials)
        window = BitplaneState(states.planes[:, offset:offset + words], trials)
        assert window.count_ones(observable.failure_plane(window)) == count
        counts.append(count)
    return counts


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
        counts = assert_stacked_matches_per_window(observable, states, windows)
        assert sum(counts) > 0


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
            "parallel", "trials",
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
        policy = ExecutionPolicy.from_env()
        assert policy == ExecutionPolicy(parallel=3, trials=1234)

    def test_from_env_parallel_max(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL", "max")
        assert ExecutionPolicy.from_env().parallel is True

    def test_from_env_unset_environment_keeps_defaults(self, monkeypatch):
        for knob in ("REPRO_PARALLEL", "REPRO_TRIALS"):
            monkeypatch.delenv(knob, raising=False)
        assert ExecutionPolicy.from_env() == ExecutionPolicy()


class TestPointResult:
    def test_fractions(self):
        result = PointResult(failures=25, trials=100, faulted_trials=40)
        assert result.failure_fraction == 0.25
