"""Tests for deterministic shard planning."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import AnalysisError, JobError
from repro.harness.threshold_finder import cycle_error_specs
from repro.jobs import DEFAULT_SHARD_SIZE, SweepJob, plan_shards, point_address
from repro.noise.seeds import spawn_seeds


def _plan(specs, shard_size=DEFAULT_SHARD_SIZE):
    """``plan_shards`` over ``specs`` with their store keys."""
    keys = [point_address(spec)[0] for spec in specs]
    return plan_shards(specs, keys, shard_size=shard_size)


def _specs(count, trials=100, cycles=1):
    seeds = spawn_seeds(0, count)
    points = tuple((0.001 * (i + 1), seeds[i]) for i in range(count))
    return cycle_error_specs(points, trials, cycles=cycles)


class TestPlanning:
    def test_deterministic_ids_and_indices(self):
        first = _plan(_specs(7), shard_size=3)
        second = _plan(_specs(7), shard_size=3)
        assert first == second

    def test_covers_each_spec_exactly_once(self):
        shards = _plan(_specs(10), shard_size=3)
        covered = sorted(i for shard in shards for i in shard.indices)
        assert covered == list(range(10))

    def test_respects_shard_size(self):
        shards = _plan(_specs(10), shard_size=4)
        assert max(len(shard) for shard in shards) <= 4

    def test_distinct_sweeps_get_distinct_ids(self):
        a = _plan(_specs(4, trials=100), shard_size=2)
        b = _plan(_specs(4, trials=200), shard_size=2)
        assert {s.shard_id for s in a}.isdisjoint(s.shard_id for s in b)

    def test_groups_by_circuit_before_chunking(self):
        # Mixed 1-cycle and 2-cycle specs have different circuits;
        # shards must never straddle the two compiled programs.
        one = _specs(3, cycles=1)
        two = _specs(3, cycles=2)
        mixed = [one[0], two[0], one[1], two[1], one[2], two[2]]
        shards = _plan(mixed, shard_size=10)
        for shard in shards:
            keys = {
                mixed[i].circuit.content_key() for i in shard.indices
            }
            assert len(keys) == 1
        assert len(shards) == 2

    def test_default_shard_size(self):
        shards = _plan(_specs(3))
        assert len(shards) == 1
        assert DEFAULT_SHARD_SIZE >= 3


class TestNumpySeeds:
    def test_numpy_integer_seed_is_planned_like_int(self):
        points = ((0.001, 7), (0.002, 8))
        numpy_points = tuple((g, np.int64(seed)) for g, seed in points)
        assert _plan(cycle_error_specs(numpy_points, 100)) == _plan(
            cycle_error_specs(points, 100)
        )


class TestRefusals:
    def test_non_positive_shard_size(self):
        with pytest.raises(AnalysisError, match="shard_size"):
            _plan(_specs(2), shard_size=0)

    def test_generator_seed_named_by_index(self, tmp_path):
        # A point without a store address cannot join a job; the
        # submit names its position.
        specs = _specs(3)
        bad = type(specs[1])(
            circuit=specs[1].circuit,
            input_bits=specs[1].input_bits,
            observable=specs[1].observable,
            noise=specs[1].noise,
            trials=specs[1].trials,
            seed=np.random.default_rng(5),
        )
        with pytest.raises(JobError, match="spec 1"):
            SweepJob.submit(tmp_path / "job", [specs[0], bad, specs[2]])
        assert not (tmp_path / "job" / "manifest.json").exists()
