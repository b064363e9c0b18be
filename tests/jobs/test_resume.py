"""Crash-safe resume and bit-identical merge for sharded sweep jobs.

The load-bearing guarantee of the job layer: a sweep that is sharded,
interrupted, resumed (possibly by a different process with a different
shard-size argument), and merged returns exactly the numbers one
uninterrupted in-process :meth:`~repro.runtime.Executor.run` returns.
"""

from __future__ import annotations

import json
import re

import pytest

from repro.errors import AnalysisError, JobError
from repro.harness.sweep import spawn_seeds
from repro.harness.threshold_finder import cycle_error_specs
from repro.jobs import SweepJob
from repro.runtime import ExecutionPolicy, Executor
from tests.conftest import MALFORMED_RESULTS, malform_result, reshape


def _specs(count=6, trials=300, base_seed=11):
    seeds = spawn_seeds(base_seed, count)
    points = tuple((0.002 * (i + 1), seeds[i]) for i in range(count))
    return cycle_error_specs(points, trials, cycles=1)


@pytest.fixture
def policy():
    return ExecutionPolicy.from_env()


class TestSubmitAndRun:
    def test_complete_run_matches_serial_executor(self, tmp_path, policy):
        specs = _specs()
        job = SweepJob.submit(tmp_path / "job", specs, policy, shard_size=2)
        report = job.run()
        assert report.shards_run == len(job.shards)
        assert not report.interrupted
        assert job.collect() == Executor(policy).run(specs)

    def test_empty_spec_list_refused(self, tmp_path, policy):
        with pytest.raises(AnalysisError, match="at least one"):
            SweepJob.submit(tmp_path / "job", [], policy)

    def test_different_sweep_in_same_dir_refused(self, tmp_path, policy):
        SweepJob.submit(tmp_path / "job", _specs(4), policy)
        with pytest.raises(JobError, match="different sweep"):
            SweepJob.submit(tmp_path / "job", _specs(4, trials=999), policy)

    @pytest.mark.parametrize("workers", [0, 2])
    def test_cold_run_reads_and_writes_each_point_once(
        self, tmp_path, policy, workers
    ):
        # Serial and pooled shards take one path: the parent looks each
        # point up once and stores each simulated point once.
        specs = _specs(4, trials=200)
        job = SweepJob.submit(tmp_path / "job", specs, policy, shard_size=2)
        job.run(workers=workers)
        stats = job.store.stats()
        assert stats["misses"] == stats["puts"] == len(specs)
        assert stats["hits"] == 0

    def test_pooled_run_bit_identical(self, tmp_path, policy):
        specs = _specs(4, trials=200)
        job = SweepJob.submit(tmp_path / "job", specs, policy, shard_size=1)
        job.run(workers=2)
        assert job.collect() == Executor(policy).run(specs)


class TestInterruptAndResume:
    def test_killed_sweep_resumes_bit_identical(self, tmp_path, policy):
        # The acceptance scenario: interrupt mid-run, resume in a
        # "new process" (a freshly loaded job), merge, and require
        # bit-identity with the uninterrupted single-process run.
        specs = _specs()
        direct = Executor(policy).run(specs)

        job = SweepJob.submit(tmp_path / "job", specs, policy, shard_size=2)
        report = job.run(max_shards=1)
        assert report.interrupted
        assert report.shards_run == 1
        status = job.status()
        assert not status.complete
        assert status.shards_done == 1

        resumed = SweepJob.submit(
            tmp_path / "job", specs, policy, shard_size=2
        )
        report = resumed.run()
        assert report.shards_skipped == 1
        assert report.shards_run == len(resumed.shards) - 1
        assert resumed.status().complete
        assert resumed.collect() == direct

    def test_resume_with_drifted_shard_size_uses_stored_plan(
        self, tmp_path, policy
    ):
        # Shard size is scheduling, not identity: a resume that asks
        # for a different chunking still runs the manifest's plan.
        specs = _specs(4, trials=200)
        job = SweepJob.submit(tmp_path / "job", specs, policy, shard_size=2)
        job.run(max_shards=1)
        resumed = SweepJob.submit(
            tmp_path / "job", specs, policy, shard_size=64
        )
        assert [s.shard_id for s in resumed.shards] == [
            s.shard_id for s in job.shards
        ]
        resumed.run()
        assert resumed.collect() == Executor(policy).run(specs)

    def test_lost_checkpoint_reruns_only_that_shard_from_store(
        self, tmp_path, policy
    ):
        # A crash can die between the store puts and the checkpoint
        # write; the shard re-runs, but its points come back from the
        # store without a single simulation.
        specs = _specs()
        job = SweepJob.submit(tmp_path / "job", specs, policy, shard_size=2)
        job.run()
        victim = job.shards[0]
        (tmp_path / "job" / "shards" / f"{victim.shard_id}.json").unlink()
        resumed = SweepJob.load(tmp_path / "job")
        report = resumed.run()
        assert report.shards_run == 1
        assert report.simulated_points == 0
        assert report.cached_points == len(victim)
        assert resumed.collect() == Executor(policy).run(specs)

    def test_completed_resubmit_serves_everything_from_disk(
        self, tmp_path, policy
    ):
        # Acceptance criterion: repeating a completed sweep costs zero
        # simulation, asserted via counters.
        specs = _specs()
        SweepJob.submit(tmp_path / "job", specs, policy, shard_size=2).run()
        repeat = SweepJob.submit(
            tmp_path / "job", specs, policy, shard_size=2
        )
        report = repeat.run()
        assert report.shards_run == 0
        assert report.simulated_points == 0
        assert repeat.collect() == Executor(policy).run(specs)


class TestCollect:
    def test_collect_before_any_run_raises(self, tmp_path, policy):
        job = SweepJob.submit(tmp_path / "job", _specs(4), policy)
        with pytest.raises(AnalysisError, match="store is empty"):
            job.collect()

    def test_collect_incomplete_names_pending_shards(self, tmp_path, policy):
        job = SweepJob.submit(
            tmp_path / "job", _specs(), policy, shard_size=2
        )
        job.run(max_shards=1)
        with pytest.raises(AnalysisError, match="incomplete"):
            job.collect()

    def test_collect_rows_pairs_specs_and_wilson(self, tmp_path, policy):
        specs = _specs(4, trials=200)
        job = SweepJob.submit(tmp_path / "job", specs, policy, shard_size=2)
        job.run()
        rows = job.collect_rows()
        assert [spec for spec, _, _ in rows] == specs
        for spec, result, estimate in rows:
            assert estimate.failures == result.failures
            assert estimate.trials == spec.trials
            low, high = estimate.interval
            assert 0.0 <= low <= high <= 1.0


class TestManifestIntegrity:
    def test_load_missing_manifest_raises(self, tmp_path):
        with pytest.raises(JobError, match="manifest"):
            SweepJob.load(tmp_path / "nowhere")

    def test_edited_manifest_specs_detected(self, tmp_path, policy):
        job = SweepJob.submit(tmp_path / "job", _specs(4), policy)
        manifest_path = tmp_path / "job" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["specs"][0]["trials"] += 1
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(JobError, match="do not hash"):
            SweepJob.load(tmp_path / "job")

    @pytest.mark.parametrize(
        "case",
        ["document-list", "specs-missing", "shards-missing", "job_id-missing"],
    )
    def test_wrong_shape_manifest_detected(self, tmp_path, policy, case):
        SweepJob.submit(tmp_path / "job", _specs(4), policy)
        path = tmp_path / "job" / "manifest.json"
        path.write_text(json.dumps(reshape(json.loads(path.read_text()), case)))
        with pytest.raises(JobError, match=re.escape(str(path))):
            SweepJob.load(tmp_path / "job")

    def test_foreign_checkpoint_detected(self, tmp_path, policy):
        specs = _specs(4, trials=200)
        job = SweepJob.submit(tmp_path / "job", specs, policy, shard_size=2)
        job.run()
        shard = job.shards[0]
        path = tmp_path / "job" / "shards" / f"{shard.shard_id}.json"
        checkpoint = json.loads(path.read_text())
        checkpoint["job_id"] = "somebody-else"
        path.write_text(json.dumps(checkpoint))
        with pytest.raises(JobError, match="does not belong"):
            job.status()

    def test_unreadable_checkpoint_is_pending_not_fatal(
        self, tmp_path, policy
    ):
        # Crash-safety: a torn/garbage checkpoint file means the shard
        # simply has not finished; it re-runs (from the store).
        specs = _specs(4, trials=200)
        job = SweepJob.submit(tmp_path / "job", specs, policy, shard_size=2)
        job.run()
        shard = job.shards[0]
        path = tmp_path / "job" / "shards" / f"{shard.shard_id}.json"
        path.write_text("{torn")
        assert job.status().shards_done == len(job.shards) - 1
        report = job.run()
        assert report.shards_run == 1
        assert report.simulated_points == 0
        assert job.collect() == Executor(policy).run(specs)

    def test_tampered_checkpoint_counts_detected(self, tmp_path, policy):
        specs = _specs(4, trials=200)
        job = SweepJob.submit(tmp_path / "job", specs, policy, shard_size=2)
        job.run()
        shard = job.shards[0]
        path = tmp_path / "job" / "shards" / f"{shard.shard_id}.json"
        checkpoint = json.loads(path.read_text())
        checkpoint["points"][0]["result"]["failures"] = (
            checkpoint["points"][0]["result"]["trials"] + 1
        )
        path.write_text(json.dumps(checkpoint))
        with pytest.raises(JobError, match="inconsistent"):
            job.collect()

    @pytest.mark.parametrize("case", sorted(MALFORMED_RESULTS))
    def test_malformed_checkpoint_counts_detected(
        self, tmp_path, policy, case
    ):
        job = SweepJob.submit(
            tmp_path / "job", _specs(4, trials=200), policy, shard_size=2
        )
        job.run()
        shard = job.shards[0]
        path = tmp_path / "job" / "shards" / f"{shard.shard_id}.json"
        checkpoint = json.loads(path.read_text())
        malform_result(checkpoint["points"][0], case)
        path.write_text(json.dumps(checkpoint))
        with pytest.raises(JobError, match=re.escape(str(path))):
            job.collect()

    @pytest.mark.parametrize(
        "case", ["document-list", "points-dict", "points-entry-list"]
    )
    def test_wrong_shape_checkpoint_detected(self, tmp_path, policy, case):
        job = SweepJob.submit(
            tmp_path / "job", _specs(4, trials=200), policy, shard_size=2
        )
        job.run()
        path = tmp_path / "job" / "shards" / f"{job.shards[0].shard_id}.json"
        path.write_text(json.dumps(reshape(json.loads(path.read_text()), case)))
        with pytest.raises(JobError, match=re.escape(str(path))):
            job.collect()
