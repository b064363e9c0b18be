"""Tests for the content-keyed result store."""

from __future__ import annotations

import json
import re

import numpy as np
import pytest

from repro.errors import JobError
from repro.harness.threshold_finder import cycle_error_specs
from repro.jobs import (
    CachingExecutor,
    RESULT_STREAM_VERSION,
    STORE_FORMAT_VERSION,
    ResultStore,
    point_key,
)
from repro.runtime import ExecutionPolicy, Executor, PointResult
from tests.conftest import MALFORMED_RESULTS, malform_result, reshape


def _specs(count=2, trials=200):
    points = tuple((0.002 * (i + 1), 100 + i) for i in range(count))
    return cycle_error_specs(points, trials, cycles=1)


@pytest.fixture
def policy():
    return ExecutionPolicy.from_env()


class TestPointKey:
    def test_deterministic(self):
        (spec,) = _specs(1)
        assert point_key(spec) == point_key(spec)

    def test_seed_and_noise_change_the_key(self):
        spec_a, spec_b = _specs(2)
        assert point_key(spec_a) != point_key(spec_b)

    def test_policy_does_not_change_the_key(self, tmp_path):
        # No policy field can change a result, so the policy is not key
        # material: a store filled under one policy is served in full
        # under another, and equals a serial run.
        specs = _specs(3)
        store = ResultStore(tmp_path)
        CachingExecutor(store, policy=ExecutionPolicy()).run(specs)
        requery = CachingExecutor(
            store, policy=ExecutionPolicy(parallel=2, trials=7)
        )
        served = requery.run(specs)
        assert requery.simulated_points == 0
        assert served == Executor(ExecutionPolicy()).run(specs)

    def test_non_integer_seed_refused(self):
        spec = _specs(1)[0]
        bad = type(spec)(
            circuit=spec.circuit,
            input_bits=spec.input_bits,
            observable=spec.observable,
            noise=spec.noise,
            trials=spec.trials,
            seed=np.random.default_rng(0),
        )
        with pytest.raises(JobError, match="integer"):
            point_key(bad)


class TestStoreRoundTrip:
    def test_miss_then_put_then_hit(self, tmp_path, policy):
        store = ResultStore(tmp_path)
        (spec,) = _specs(1)
        assert store.get(spec) is None
        (result,) = Executor(policy).run([spec])
        store.put(spec, result)
        assert store.get(spec) == result
        assert store.stats() == {"hits": 1, "misses": 1, "puts": 1, "stale": 0}
        assert len(store) == 1

    def test_entry_embeds_provenance(self, tmp_path, policy):
        store = ResultStore(tmp_path)
        (spec,) = _specs(1)
        (result,) = Executor(policy).run([spec])
        key = store.put(spec, result)
        entry = json.loads((tmp_path / key[:2] / f"{key}.json").read_text())
        assert entry["format"] == STORE_FORMAT_VERSION
        assert entry["provenance"]["stream"] == RESULT_STREAM_VERSION
        assert set(entry["provenance"]) == {"version", "stream"}

    def test_entry_with_backend_provenance_is_a_hit(self, tmp_path, policy):
        # Older writers recorded the execution backend as provenance;
        # provenance is never read, so their entries still serve.
        store = ResultStore(tmp_path)
        (spec,) = _specs(1)
        (result,) = Executor(policy).run([spec])
        key = store.put(spec, result)
        path = tmp_path / key[:2] / f"{key}.json"
        entry = json.loads(path.read_text())
        entry["provenance"]["backend"] = "numpy"
        path.write_text(json.dumps(entry))
        assert store.get(spec) == result
        assert store.stats()["hits"] == 1

    def test_mismatched_trials_refused_on_put(self, tmp_path, policy):
        store = ResultStore(tmp_path)
        (spec,) = _specs(1, trials=200)
        bad = PointResult(failures=0, trials=100, faulted_trials=5)
        with pytest.raises(JobError, match="mismatched"):
            store.put(spec, bad)


class TestStaleDetection:
    def _stored(self, tmp_path, policy):
        store = ResultStore(tmp_path)
        (spec,) = _specs(1)
        (result,) = Executor(policy).run([spec])
        key = store.put(spec, result)
        return store, spec, tmp_path / key[:2] / f"{key}.json"

    def test_corrupt_json_raises_not_served(self, tmp_path, policy):
        store, spec, path = self._stored(tmp_path, policy)
        path.write_text("{not json")
        with pytest.raises(JobError, match="unreadable"):
            store.get(spec)
        assert store.stats()["stale"] == 1

    def test_foreign_format_version_raises(self, tmp_path, policy):
        store, spec, path = self._stored(tmp_path, policy)
        entry = json.loads(path.read_text())
        entry["format"] = STORE_FORMAT_VERSION + 1
        path.write_text(json.dumps(entry))
        with pytest.raises(JobError, match="format"):
            store.get(spec)

    def test_tampered_counts_raise(self, tmp_path, policy):
        store, spec, path = self._stored(tmp_path, policy)
        entry = json.loads(path.read_text())
        entry["result"]["failures"] = entry["result"]["trials"] + 1
        path.write_text(json.dumps(entry))
        with pytest.raises(JobError, match="stale"):
            store.get(spec)

    @pytest.mark.parametrize("case", sorted(MALFORMED_RESULTS))
    def test_malformed_counts_raise(self, tmp_path, policy, case):
        store, spec, path = self._stored(tmp_path, policy)
        entry = json.loads(path.read_text())
        malform_result(entry, case)
        path.write_text(json.dumps(entry))
        with pytest.raises(JobError, match=re.escape(str(path))):
            store.get(spec)
        assert store.stats()["stale"] == 1

    @pytest.mark.parametrize("case", ["document-list"])
    def test_wrong_shape_raises(self, tmp_path, policy, case):
        store, spec, path = self._stored(tmp_path, policy)
        path.write_text(json.dumps(reshape(json.loads(path.read_text()), case)))
        with pytest.raises(JobError, match=re.escape(str(path))):
            store.get(spec)
        assert store.stats()["stale"] == 1

    def test_swapped_spec_raises(self, tmp_path, policy):
        # An entry whose embedded spec differs from the request means
        # the file was moved or the key scheme broke — never serve it.
        store, spec, path = self._stored(tmp_path, policy)
        entry = json.loads(path.read_text())
        entry["spec"]["trials"] = entry["spec"]["trials"] + 1
        path.write_text(json.dumps(entry))
        with pytest.raises(JobError, match="spec"):
            store.get(spec)


class TestCachingExecutor:
    def test_second_run_is_all_cache_hits(self, tmp_path, policy):
        specs = _specs(3)
        direct = Executor(policy).run(specs)
        caching = CachingExecutor(ResultStore(tmp_path), policy=policy)
        first = caching.run(specs)
        assert first == direct
        assert caching.simulated_points == 3
        assert caching.cached_points == 0
        again = CachingExecutor(caching.store, policy=policy)
        assert again.run(specs) == direct
        assert again.simulated_points == 0
        assert again.cached_points == 3

    def test_partial_hit_simulates_only_misses(self, tmp_path, policy):
        specs = _specs(3)
        store = ResultStore(tmp_path)
        CachingExecutor(store, policy=policy).run(specs[:1])
        caching = CachingExecutor(store, policy=policy)
        assert caching.run(specs) == Executor(policy).run(specs)
        assert caching.simulated_points == 2
        assert caching.cached_points == 1

    def test_generator_seed_bypasses_the_store(self, tmp_path, policy):
        (spec,) = _specs(1)
        bad = type(spec)(
            circuit=spec.circuit,
            input_bits=spec.input_bits,
            observable=spec.observable,
            noise=spec.noise,
            trials=spec.trials,
            seed=np.random.default_rng(0),
        )
        store = ResultStore(tmp_path)
        caching = CachingExecutor(store, policy=policy)
        caching.run([bad])
        assert caching.simulated_points == 1
        assert len(store) == 0  # nothing durable for an unreproducible point

    def test_run_one(self, tmp_path, policy):
        (spec,) = _specs(1)
        caching = CachingExecutor(ResultStore(tmp_path), policy=policy)
        assert caching.run_one(spec) == Executor(policy).run([spec])[0]
