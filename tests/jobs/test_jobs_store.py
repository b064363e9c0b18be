"""Tests for the content-keyed result store."""

from __future__ import annotations

import json
import re

import numpy as np
import pytest

from repro.errors import JobError
from repro.harness.threshold_finder import cycle_error_specs
from repro.jobs import store as jobs_store
from repro.jobs.caching import CachingExecutor
from repro.jobs.store import (
    RESULT_STREAM_VERSION,
    STORE_FORMAT_VERSION,
    ResultStore,
    point_address,
)
from repro.runtime.executor import Executor
from repro.runtime.spec import ExecutionPolicy, PointResult
from tests.conftest import CounterDeltas, MALFORMED_RESULTS, malform_result, reshape


#: The store's traffic counters, ``jobs.store.<name>``.
STORE_TRAFFIC = ("hit", "miss", "put", "stale")


def _specs(count=2, trials=200):
    points = tuple((0.002 * (i + 1), 100 + i) for i in range(count))
    return cycle_error_specs(points, trials, cycles=1)


@pytest.fixture
def policy():
    return ExecutionPolicy.from_env()


class TestPointKey:
    def test_deterministic(self):
        (spec,) = _specs(1)
        assert point_address(spec) == point_address(spec)

    def test_seed_and_noise_change_the_key(self):
        spec_a, spec_b = _specs(2)
        assert point_address(spec_a)[0] != point_address(spec_b)[0]

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
        counts = CounterDeltas()
        served = requery.run(specs)
        assert counts["jobs.cache.simulated_points"] == 0
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
        assert point_address(bad) is None

    @pytest.mark.parametrize("seed", [np.int64(5), np.int32(5), np.uint64(5)])
    def test_numpy_integer_seed_keys_and_runs_like_int(self, seed, policy):
        # Regression: spec_to_json accepted a NumPy seed but the store
        # key refused it ("needs an integer seed").
        (plain,) = cycle_error_specs(((1e-3, 5),), 1000)
        (numpy_seeded,) = cycle_error_specs(((1e-3, seed),), 1000)
        assert type(numpy_seeded.seed) is int
        assert point_address(numpy_seeded) == point_address(plain)
        executor = Executor(policy)
        assert executor.run([numpy_seeded]) == executor.run([plain])


class TestStoreRoundTrip:
    def test_miss_then_put_then_hit(self, tmp_path, policy):
        store = ResultStore(tmp_path)
        (spec,) = _specs(1)
        address = point_address(spec)
        counts = CounterDeltas()
        assert store.get(address) is None
        (result,) = Executor(policy).run([spec])
        store.put(address, result)
        assert store.get(address) == result
        assert [counts[f"jobs.store.{name}"] for name in STORE_TRAFFIC] == [1, 1, 1, 0]
        assert len(store) == 1

    def test_entry_embeds_provenance(self, tmp_path, policy):
        store = ResultStore(tmp_path)
        (spec,) = _specs(1)
        (result,) = Executor(policy).run([spec])
        key, _ = address = point_address(spec)
        store.put(address, result)
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
        key, _ = address = point_address(spec)
        store.put(address, result)
        path = tmp_path / key[:2] / f"{key}.json"
        entry = json.loads(path.read_text())
        entry["provenance"]["backend"] = "numpy"
        path.write_text(json.dumps(entry))
        counts = CounterDeltas()
        assert store.get(address) == result
        assert counts["jobs.store.hit"] == 1

    def test_entries_reference_the_circuit_by_digest(self, tmp_path, policy):
        # Three puts sharing one circuit write three entries and no copy
        # of the circuit: each compressed spec names it by digest, and
        # a lookup compares those references.
        store = ResultStore(tmp_path)
        specs = _specs(3)
        addresses = [point_address(spec) for spec in specs]
        results = Executor(policy).run(specs)
        for address, result in zip(addresses, results):
            store.put(address, result)
        assert len(store) == 3
        files = [path for path in tmp_path.rglob("*") if path.is_file()]
        assert len(files) == 3
        for path in files:
            assert '"ops"' not in path.read_text()
            assert set(json.loads(path.read_text())["spec"]["circuit"]) == {"circuit_digest"}
        assert [store.get(address) for address in addresses] == results

    def test_format_3_entry_is_a_miss(self, tmp_path, policy, monkeypatch):
        # The format is key material: an entry written under an older
        # layout sits at another key, so it is a clean miss, not stale.
        store = ResultStore(tmp_path)
        (spec,) = _specs(1)
        (result,) = Executor(policy).run([spec])
        monkeypatch.setattr(jobs_store, "STORE_FORMAT_VERSION", 3)
        store.put(point_address(spec), result)
        monkeypatch.undo()
        counts = CounterDeltas()
        assert store.get(point_address(spec)) is None
        assert counts["jobs.store.stale"] == 0
        assert counts["jobs.store.miss"] == 1
        assert len(store) == 1

    def test_mismatched_trials_refused_on_put(self, tmp_path, policy):
        store = ResultStore(tmp_path)
        (spec,) = _specs(1, trials=200)
        bad = PointResult(failures=0, trials=100, faulted_trials=5)
        with pytest.raises(JobError, match="mismatched"):
            store.put(point_address(spec), bad)


class TestStaleDetection:
    def _stored(self, tmp_path, policy):
        store = ResultStore(tmp_path)
        (spec,) = _specs(1)
        (result,) = Executor(policy).run([spec])
        key, _ = address = point_address(spec)
        store.put(address, result)
        return store, address, tmp_path / key[:2] / f"{key}.json"

    def test_corrupt_json_raises_not_served(self, tmp_path, policy):
        store, address, path = self._stored(tmp_path, policy)
        path.write_text("{not json")
        counts = CounterDeltas()
        with pytest.raises(JobError, match="unreadable"):
            store.get(address)
        assert counts["jobs.store.stale"] == 1

    def test_foreign_format_version_raises(self, tmp_path, policy):
        store, address, path = self._stored(tmp_path, policy)
        entry = json.loads(path.read_text())
        entry["format"] = STORE_FORMAT_VERSION + 1
        path.write_text(json.dumps(entry))
        with pytest.raises(JobError, match="format"):
            store.get(address)

    def test_tampered_counts_raise(self, tmp_path, policy):
        store, address, path = self._stored(tmp_path, policy)
        entry = json.loads(path.read_text())
        entry["result"]["failures"] = entry["result"]["trials"] + 1
        path.write_text(json.dumps(entry))
        with pytest.raises(JobError, match="stale"):
            store.get(address)

    @pytest.mark.parametrize("case", sorted(MALFORMED_RESULTS))
    def test_malformed_counts_raise(self, tmp_path, policy, case):
        store, address, path = self._stored(tmp_path, policy)
        entry = json.loads(path.read_text())
        malform_result(entry, case)
        path.write_text(json.dumps(entry))
        counts = CounterDeltas()
        with pytest.raises(JobError, match=re.escape(str(path))):
            store.get(address)
        assert counts["jobs.store.stale"] == 1

    @pytest.mark.parametrize(
        "edit,match",
        [
            (lambda entry: entry.update(key="0" * 64), "embedded key"),
            (
                lambda entry: entry["result"].update(trials=7),
                "stored trials 7 != spec trials",
            ),
        ],
        ids=["key", "trials"],
    )
    def test_edited_entry_names_the_problem(self, tmp_path, policy, edit, match):
        store, address, path = self._stored(tmp_path, policy)
        entry = json.loads(path.read_text())
        edit(entry)
        path.write_text(json.dumps(entry))
        counts = CounterDeltas()
        with pytest.raises(JobError, match=match):
            store.get(address)
        assert counts["jobs.store.stale"] == 1

    @pytest.mark.parametrize("case", ["document-list"])
    def test_wrong_shape_raises(self, tmp_path, policy, case):
        store, address, path = self._stored(tmp_path, policy)
        path.write_text(json.dumps(reshape(json.loads(path.read_text()), case)))
        counts = CounterDeltas()
        with pytest.raises(JobError, match=re.escape(str(path))):
            store.get(address)
        assert counts["jobs.store.stale"] == 1

    def test_swapped_spec_raises(self, tmp_path, policy):
        # An entry whose embedded spec differs from the request means
        # the file was moved or the key scheme broke — never serve it.
        store, address, path = self._stored(tmp_path, policy)
        entry = json.loads(path.read_text())
        entry["spec"]["trials"] = entry["spec"]["trials"] + 1
        path.write_text(json.dumps(entry))
        with pytest.raises(JobError, match="spec"):
            store.get(address)


class TestAtomicWrite:
    def test_failed_write_leaves_no_temp_file_and_keeps_the_old_one(
        self, tmp_path
    ):
        path = tmp_path / "entry.json"
        jobs_store.write_json_atomic(path, {"n": 1})
        with pytest.raises(TypeError):
            jobs_store.write_json_atomic(path, {"n": object()})
        assert json.loads(path.read_text()) == {"n": 1}
        assert sorted(p.name for p in tmp_path.iterdir()) == ["entry.json"]


class TestCachingExecutor:
    @staticmethod
    def _split(counts) -> tuple[int, int]:
        """(simulated, served) points since ``counts`` was taken."""
        return (
            counts["jobs.cache.simulated_points"],
            counts["jobs.cache.served_points"],
        )

    def test_second_run_is_all_cache_hits(self, tmp_path, policy):
        specs = _specs(3)
        direct = Executor(policy).run(specs)
        caching = CachingExecutor(ResultStore(tmp_path), policy=policy)
        counts = CounterDeltas()
        first = caching.run(specs)
        assert first == direct
        assert self._split(counts) == (3, 0)
        again = CachingExecutor(caching.store, policy=policy)
        counts = CounterDeltas()
        assert again.run(specs) == direct
        assert self._split(counts) == (0, 3)

    def test_partial_hit_simulates_only_misses(self, tmp_path, policy):
        specs = _specs(3)
        store = ResultStore(tmp_path)
        CachingExecutor(store, policy=policy).run(specs[:1])
        caching = CachingExecutor(store, policy=policy)
        counts = CounterDeltas()
        assert caching.run(specs) == Executor(policy).run(specs)
        assert self._split(counts) == (2, 1)

    def test_numpy_integer_seed_is_served_from_the_store(self, tmp_path, policy):
        # Regression: a NumPy seed bypassed the store, so every run
        # simulated the point again (simulated 2, cached 0).
        specs = cycle_error_specs(((1e-3, np.int64(5)),), 1000)
        caching = CachingExecutor(ResultStore(tmp_path), policy=policy)
        counts = CounterDeltas()
        first = caching.run(specs)
        assert caching.run(specs) == first
        assert self._split(counts) == (1, 1)
        assert len(caching.store) == 1

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
        counts = CounterDeltas()
        caching.run([bad])
        assert self._split(counts) == (1, 0)
        assert len(store) == 0  # nothing durable for an unreproducible point
