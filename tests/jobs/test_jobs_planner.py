"""Tests for deterministic shard planning."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import AnalysisError, JobError
from repro.harness.sweep import spawn_seeds
from repro.harness.threshold_finder import cycle_error_specs
from repro.jobs import DEFAULT_SHARD_SIZE, plan_shards


def _specs(count, trials=100, cycles=1):
    seeds = spawn_seeds(0, count)
    points = tuple((0.001 * (i + 1), seeds[i]) for i in range(count))
    return cycle_error_specs(points, trials, cycles=cycles)


class TestPlanning:
    def test_deterministic_ids_and_indices(self):
        first = plan_shards(_specs(7), shard_size=3)
        second = plan_shards(_specs(7), shard_size=3)
        assert first == second

    def test_covers_each_spec_exactly_once(self):
        shards = plan_shards(_specs(10), shard_size=3)
        covered = sorted(i for shard in shards for i in shard.indices)
        assert covered == list(range(10))

    def test_respects_shard_size(self):
        shards = plan_shards(_specs(10), shard_size=4)
        assert max(len(shard) for shard in shards) <= 4

    def test_distinct_sweeps_get_distinct_ids(self):
        a = plan_shards(_specs(4, trials=100), shard_size=2)
        b = plan_shards(_specs(4, trials=200), shard_size=2)
        assert {s.shard_id for s in a}.isdisjoint(s.shard_id for s in b)

    def test_groups_by_circuit_before_chunking(self):
        # Mixed 1-cycle and 2-cycle specs have different circuits;
        # shards must never straddle the two compiled programs.
        one = _specs(3, cycles=1)
        two = _specs(3, cycles=2)
        mixed = [one[0], two[0], one[1], two[1], one[2], two[2]]
        shards = plan_shards(mixed, shard_size=10)
        for shard in shards:
            keys = {
                mixed[i].circuit.content_key() for i in shard.indices
            }
            assert len(keys) == 1
        assert len(shards) == 2

    def test_default_shard_size(self):
        shards = plan_shards(_specs(3))
        assert len(shards) == 1
        assert DEFAULT_SHARD_SIZE >= 3


class TestRefusals:
    def test_non_positive_shard_size(self):
        with pytest.raises(AnalysisError, match="shard_size"):
            plan_shards(_specs(2), shard_size=0)

    def test_generator_seed_named_by_index(self):
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
            plan_shards([specs[0], bad, specs[2]])
