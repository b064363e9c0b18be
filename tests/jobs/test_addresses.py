"""One store address per point: the job layer serialises each spec once.

:func:`~repro.jobs.store.point_address` computes a point's ``(key, wire)``
pair; submit and load compute one per spec and every later step reuses
it.  These tests count the serialisations and key hashes each step
makes, and check that job traffic reaches the ``jobs.cache.*``
counters.
"""

from __future__ import annotations

import json
import re
import shutil
from collections import Counter

import pytest

from repro.errors import JobError
from repro.harness.threshold_finder import cycle_error_specs
from repro.jobs import caching, planner, runner, store
from repro.jobs.caching import CachingExecutor
from repro.jobs.runner import SweepJob
from repro.jobs.store import ResultStore
from repro.noise.seeds import spawn_seeds
from repro.runtime import serialization
from repro.runtime.executor import Executor
from repro.runtime.spec import ExecutionPolicy
from tests.conftest import CounterDeltas


def _specs(count, trials=200):
    seeds = spawn_seeds(3, count)
    points = tuple((0.002 * (i + 1), seeds[i]) for i in range(count))
    return cycle_error_specs(points, trials, cycles=1)


@pytest.fixture
def policy():
    return ExecutionPolicy()


@pytest.fixture
def calls(monkeypatch):
    """Counts of ``spec_to_json`` and ``_key_from_wire`` calls, wherever
    the job layer reaches them."""
    counts: Counter[str] = Counter()

    def count(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for module in (serialization, store, caching, planner, runner):
        if hasattr(module, "spec_to_json"):
            count(module, "spec_to_json")
    count(store, "_key_from_wire")
    return counts


def _step(calls, action) -> tuple[int, int]:
    """``(spec_to_json calls, key hashes)`` made by ``action()``."""
    before = calls.copy()
    action()
    return (
        calls["spec_to_json"] - before["spec_to_json"],
        calls["_key_from_wire"] - before["_key_from_wire"],
    )


class TestOneSerialisationPerPoint:
    def test_jobs_sweep_iteration(self, tmp_path, policy, calls):
        # The jobs benchmark's iteration: cold submit/run/collect, a
        # warm resubmit/run/collect, then a CachingExecutor re-query.
        # Each of the three entry points serialises and keys each
        # point once; nothing after them does either.
        specs = _specs(10)
        job_dir = tmp_path / "job"
        steps = {}
        jobs = []
        steps["submit"] = _step(
            calls,
            lambda: jobs.append(
                SweepJob.submit(job_dir, specs, policy, shard_size=2)
            ),
        )
        steps["run"] = _step(calls, lambda: jobs[0].run())
        steps["collect"] = _step(calls, lambda: jobs[0].collect())
        shutil.rmtree(job_dir / "shards")
        steps["warm-submit"] = _step(
            calls,
            lambda: jobs.append(
                SweepJob.submit(job_dir, specs, policy, shard_size=2)
            ),
        )
        steps["warm-run"] = _step(calls, lambda: jobs[1].run())
        steps["warm-collect"] = _step(calls, lambda: jobs[1].collect())
        steps["requery"] = _step(
            calls,
            lambda: CachingExecutor(
                ResultStore(job_dir / "store"), policy=policy
            ).run(specs),
        )
        assert steps == {
            "submit": (10, 10),
            "run": (0, 0),
            "collect": (0, 0),
            "warm-submit": (10, 10),
            "warm-run": (0, 0),
            "warm-collect": (0, 0),
            "requery": (10, 10),
        }
        assert calls["spec_to_json"] <= 40
        assert calls["_key_from_wire"] <= 40

    @pytest.mark.parametrize("opened", ["submitted", "loaded"])
    def test_run_and_collect_serialise_nothing(
        self, tmp_path, policy, calls, opened
    ):
        specs = _specs(4)
        job = SweepJob.submit(tmp_path / "job", specs, policy, shard_size=2)
        if opened == "loaded":
            before = calls.copy()
            job = SweepJob.load(tmp_path / "job")
            assert calls - before == {"spec_to_json": 4, "_key_from_wire": 4}
        before = calls.copy()
        job.run()
        job.status()
        job.shard_stats()
        assert job.collect() == Executor(policy).run(specs)
        assert calls == before

    def test_caching_executor_serialises_each_spec_once(
        self, tmp_path, policy, calls
    ):
        specs = _specs(3)
        caching_executor = CachingExecutor(ResultStore(tmp_path), policy=policy)
        assert _step(calls, lambda: caching_executor.run(specs)) == (3, 3)
        assert _step(calls, lambda: caching_executor.run(specs)) == (3, 3)


class TestCacheCountersSeeJobs:
    @staticmethod
    def _split(counts) -> tuple[int, int]:
        return (
            counts["jobs.cache.simulated_points"],
            counts["jobs.cache.served_points"],
        )

    def test_cold_job_simulates_and_warm_rerun_serves(self, tmp_path, policy):
        specs = _specs(4)
        counts = CounterDeltas()
        SweepJob.submit(tmp_path / "job", specs, policy, shard_size=2).run()
        assert self._split(counts) == (4, 0)
        counts = CounterDeltas()
        SweepJob.submit(tmp_path / "job", specs, policy, shard_size=2).run()
        assert self._split(counts) == (0, 4)

    def test_partial_rerun_splits_its_points(self, tmp_path, policy):
        specs = _specs(4)
        job = SweepJob.submit(tmp_path / "job", specs, policy, shard_size=2)
        job.run()
        key, _ = job.addresses[1]
        (job.job_dir / "store" / key[:2] / f"{key}.json").unlink()
        counts = CounterDeltas()
        SweepJob.load(tmp_path / "job").run()
        assert self._split(counts) == (1, 3)


class TestManifestAddresses:
    def test_null_seed_in_manifest_names_the_file(self, tmp_path, policy):
        SweepJob.submit(tmp_path / "job", _specs(4), policy)
        path = tmp_path / "job" / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["specs"][2]["seed"] = None
        path.write_text(json.dumps(manifest))
        with pytest.raises(
            JobError, match=rf"{re.escape(str(path))} spec 2 has seed None"
        ):
            SweepJob.load(tmp_path / "job")

    def test_resubmit_refuses_edited_specs_under_the_same_job_id(
        self, tmp_path, policy
    ):
        specs = _specs(4)
        SweepJob.submit(tmp_path / "job", specs, policy)
        path = tmp_path / "job" / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["specs"][0]["trials"] += 1
        path.write_text(json.dumps(manifest))
        with pytest.raises(JobError, match="different sweep"):
            SweepJob.submit(tmp_path / "job", specs, policy)

    def test_resubmit_restores_a_missing_circuit_blob(self, tmp_path, policy):
        specs = _specs(4)
        job = SweepJob.submit(tmp_path / "job", specs, policy)
        (blob,) = (tmp_path / "job" / "circuits").iterdir()
        blob.unlink()
        SweepJob.submit(tmp_path / "job", specs, policy)
        assert blob.exists()
        assert SweepJob.load(tmp_path / "job").addresses == job.addresses
