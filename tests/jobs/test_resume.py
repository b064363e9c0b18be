"""Crash-safe resume and bit-identical merge for sharded sweep jobs.

The load-bearing guarantee of the job layer: a sweep that is sharded,
interrupted, resumed (possibly by a different process with a different
shard-size argument), and merged returns exactly the numbers one
uninterrupted in-process :meth:`~repro.runtime.executor.Executor.run` returns.
"""

from __future__ import annotations

import json
import re
import shutil
from dataclasses import replace

import pytest

from repro.errors import AnalysisError, JobError
from repro.harness.threshold_finder import cycle_error_specs
from repro.jobs import runner
from repro.jobs.runner import SweepJob
from repro.noise.seeds import spawn_seeds
from repro.runtime.executor import Executor
from repro.runtime.spec import ExecutionPolicy
from tests.conftest import CounterDeltas, MALFORMED_RESULTS, malform_result, reshape


def _specs(count=6, trials=300, base_seed=11):
    seeds = spawn_seeds(base_seed, count)
    points = tuple((0.002 * (i + 1), seeds[i]) for i in range(count))
    return cycle_error_specs(points, trials, cycles=1)


@pytest.fixture
def policy():
    return ExecutionPolicy.from_env()


_RUN_SHARD = runner._run_shard_specs

#: The trial count whose shard :func:`explode_on_marked_shard` fails.
EXPLODING_TRIALS = 201


def explode_on_marked_shard(specs):
    """The shard task, except that it raises on the marked trial count."""
    if any(spec.trials == EXPLODING_TRIALS for spec in specs):
        raise ValueError("shard exploded")
    return _RUN_SHARD(specs)


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
        job = SweepJob.submit(
            tmp_path / "job",
            specs,
            replace(policy, parallel=workers),
            shard_size=2,
        )
        counts = CounterDeltas()
        job.run()
        assert counts["jobs.store.miss"] == counts["jobs.store.put"] == len(specs)
        assert counts["jobs.store.hit"] == 0

    def test_pooled_run_bit_identical(self, tmp_path, policy):
        specs = _specs(4, trials=200)
        job = SweepJob.submit(
            tmp_path / "job", specs, replace(policy, parallel=2), shard_size=1
        )
        job.run()
        assert job.collect() == Executor(policy).run(specs)

    def test_negative_max_shards_refused(self, tmp_path, policy):
        job = SweepJob.submit(tmp_path / "job", _specs(2), policy)
        with pytest.raises(AnalysisError, match="max_shards"):
            job.run(max_shards=-1)

    def test_workers_knob_is_gone(self, tmp_path, policy):
        job = SweepJob.submit(tmp_path / "job", _specs(2), policy)
        with pytest.raises(TypeError):
            job.run(workers=2)

    def test_resubmit_keeps_the_callers_policy(self, tmp_path, monkeypatch):
        # Regression: a resubmit returned the loaded job, whose policy
        # came from the environment, and dropped the caller's.
        for name in ("REPRO_PARALLEL", "REPRO_TRIALS"):
            monkeypatch.delenv(name, raising=False)
        specs = _specs(4)
        policy = ExecutionPolicy(parallel=2, trials=777)
        first = SweepJob.submit(tmp_path / "job", specs, policy)
        again = SweepJob.submit(tmp_path / "job", specs, policy)
        assert first.policy == again.policy == policy
        # No policy given: the environment's, as for a fresh submit.
        bare = SweepJob.submit(tmp_path / "job", specs)
        assert bare.policy == ExecutionPolicy.from_env()

    def test_failed_pooled_shard_raises_and_tears_the_pool_down(
        self, tmp_path, policy, monkeypatch
    ):
        import concurrent.futures.process as cfp

        monkeypatch.setattr(runner, "_run_shard_specs", explode_on_marked_shard)
        specs = _specs(4, trials=200)
        marked = replace(specs[2], trials=EXPLODING_TRIALS)
        specs = [*specs[:2], marked, *specs[3:]]
        job = SweepJob.submit(
            tmp_path / "job", specs, replace(policy, parallel=2), shard_size=1
        )
        (victim,) = [s for s in job.shards if 2 in s.indices]
        with pytest.raises(
            JobError, match=rf"shard {victim.shard_id} failed.*shard exploded"
        ):
            job.run()
        assert not (tmp_path / "job" / "shards" / f"{victim.shard_id}.json").exists()
        lingering = [t for t in cfp._threads_wakeups if t.is_alive()]
        assert lingering == []


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

#: Hand edits that leave a manifest spec well-formed JSON of the wrong
#: shape; each must fail the load with a JobError naming the manifest.
SPEC_EDITS = {
    "trials-dropped": lambda spec: spec.pop("trials"),
    "trials-float": lambda spec: spec.update(trials=100.5),
    "trials-bool": lambda spec: spec.update(trials=True),
    "seed-bool": lambda spec: spec.update(seed=True),
    "seed-negative": lambda spec: spec.update(seed=-5),
    "layouts-dropped": lambda spec: spec["observable"]["decoder"].pop("layouts"),
    "circuit-string": lambda spec: spec.update(circuit="abc"),
    "input_bits-int": lambda spec: spec.update(input_bits=5),
    "noise-string": lambda spec: spec.update(noise="x"),
    "observable-kind-dropped": lambda spec: spec["observable"].pop("kind"),
    "digest-path": lambda spec: spec.update(
        circuit={"circuit_digest": "../manifest"}
    ),
}


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

    @pytest.mark.parametrize(
        "edit,match",
        [
            (lambda m: m["specs"].__setitem__(0, 5), "a spec is not a JSON object"),
            (lambda m: m["shards"].__setitem__(0, {"id": 3}), "a shard is not"),
            (lambda m: m.update(format=99), "has format 99"),
            (lambda m: m["shards"][0]["indices"].pop(), "does not cover"),
            (lambda m: m["shards"][0]["indices"].append("0"), "a shard is not"),
        ],
        ids=[
            "spec-not-object",
            "shard-not-object",
            "foreign-format",
            "plan-gap",
            "index-string",
        ],
    )
    def test_edited_manifest_names_the_problem(self, tmp_path, policy, edit, match):
        SweepJob.submit(tmp_path / "job", _specs(4), policy)
        path = tmp_path / "job" / "manifest.json"
        manifest = json.loads(path.read_text())
        edit(manifest)
        path.write_text(json.dumps(manifest))
        with pytest.raises(JobError, match=match):
            SweepJob.load(tmp_path / "job")

    def test_corrupt_manifest_raises(self, tmp_path, policy):
        SweepJob.submit(tmp_path / "job", _specs(4), policy)
        (tmp_path / "job" / "manifest.json").write_text("{")
        with pytest.raises(JobError, match="is corrupt"):
            SweepJob.load(tmp_path / "job")

    @pytest.mark.parametrize("edit", sorted(SPEC_EDITS))
    def test_wrong_shape_manifest_spec_names_the_file(
        self, tmp_path, policy, edit
    ):
        SweepJob.submit(tmp_path / "job", _specs(4), policy)
        path = tmp_path / "job" / "manifest.json"
        manifest = json.loads(path.read_text())
        SPEC_EDITS[edit](manifest["specs"][1])
        path.write_text(json.dumps(manifest))
        with pytest.raises(
            JobError, match=rf"{re.escape(str(path))} spec 1 cannot be rebuilt"
        ):
            SweepJob.load(tmp_path / "job")

class TestStoreIsTheRecord:
    """The store alone holds results and decides which shards are done;
    ``shards/`` holds only run logs."""

    def _ran(self, tmp_path, policy, count=6):
        specs = _specs(count)
        job = SweepJob.submit(tmp_path / "job", specs, policy, shard_size=2)
        job.run()
        return specs, job

    def _entry(self, job, index):
        key, _ = job.addresses[index]
        return job.job_dir / "store" / key[:2] / f"{key}.json"

    def test_deleting_run_logs_changes_no_result(self, tmp_path, policy):
        # The warm step of the jobs benchmark: drop shards/, keep the
        # store, resubmit.
        specs, job = self._ran(tmp_path, policy)
        shutil.rmtree(tmp_path / "job" / "shards")
        reloaded = SweepJob.load(tmp_path / "job")
        assert reloaded.status().complete
        assert reloaded.collect() == Executor(policy).run(specs)
        again = SweepJob.submit(tmp_path / "job", specs, policy, shard_size=2)
        counts = CounterDeltas()
        report = again.run()
        assert report.simulated_points == 0
        assert report.shards_skipped == len(job.shards)
        assert counts["jobs.store.put"] == 0

    def test_deleted_store_entry_reruns_exactly_that_point(
        self, tmp_path, policy
    ):
        specs, job = self._ran(tmp_path, policy)
        entry = self._entry(job, 3)
        original = entry.read_bytes()
        entry.unlink()
        (victim,) = [shard for shard in job.shards if 3 in shard.indices]
        resumed = SweepJob.load(tmp_path / "job")
        assert resumed.status().shards_done == len(job.shards) - 1
        pending = [row["shard_id"] for row in resumed.shard_stats() if not row["done"]]
        assert pending == [victim.shard_id]
        report = resumed.run()
        assert report.shards_run == 1
        assert report.simulated_points == 1
        assert report.cached_points == len(victim) - 1
        assert entry.read_bytes() == original
        assert resumed.collect() == Executor(policy).run(specs)

    @pytest.mark.parametrize("case", ["tampered", *sorted(MALFORMED_RESULTS)])
    def test_tampered_store_entry_fails_collect(self, tmp_path, policy, case):
        _, job = self._ran(tmp_path, policy, count=4)
        path = self._entry(job, 2)
        entry = json.loads(path.read_text())
        if case == "tampered":
            entry["result"]["failures"] = entry["result"]["trials"] + 1
        else:
            malform_result(entry, case)
        path.write_text(json.dumps(entry))
        with pytest.raises(JobError, match=re.escape(str(path))):
            SweepJob.load(tmp_path / "job").collect()


#: Run-log edits that leave stats no shard can vouch for: case -> edit.
BAD_RUN_LOGS = {
    "document-list": lambda log: [log],
    "stat-missing": lambda log: {k: v for k, v in log.items() if k != "elapsed_s"},
    "stat-string": lambda log: {**log, "simulated": "2"},
    "other-job": lambda log: {**log, "job_id": "0" * 16},
    "other-shard": lambda log: {**log, "shard_id": "s" + "0" * 16},
}


class TestRunLogs:
    """``shards/<id>.json`` records how a shard's last run split between
    simulated and served points, and nothing reads it but the stats."""

    def _stats(self, job):
        return {row["shard_id"]: row for row in job.shard_stats()}

    def test_logs_record_each_runs_split(self, tmp_path, policy):
        specs = _specs(4)
        job = SweepJob.submit(tmp_path / "job", specs, policy, shard_size=2)
        job.run()
        for row in self._stats(job).values():
            assert row["done"] and row["elapsed_s"] >= 0
            assert (row["simulated"], row["cached"]) == (2, 0)
        key, _ = job.addresses[1]
        (job.job_dir / "store" / key[:2] / f"{key}.json").unlink()
        (victim,) = [shard for shard in job.shards if 1 in shard.indices]
        resumed = SweepJob.load(tmp_path / "job")
        resumed.run()
        stats = self._stats(resumed)
        assert (stats[victim.shard_id]["simulated"], stats[victim.shard_id]["cached"]) == (1, 1)
        assert all(
            (row["simulated"], row["cached"]) == (2, 0)
            for shard_id, row in stats.items()
            if shard_id != victim.shard_id
        )

    @pytest.mark.parametrize("case", sorted(BAD_RUN_LOGS))
    def test_bad_log_reads_as_no_stats(self, tmp_path, policy, case):
        specs = _specs(4)
        job = SweepJob.submit(tmp_path / "job", specs, policy, shard_size=2)
        job.run()
        first, second = job.shards
        path = job._run_log_path(first)
        path.write_text(json.dumps(BAD_RUN_LOGS[case](json.loads(path.read_text()))))
        stats = self._stats(SweepJob.load(tmp_path / "job"))
        assert stats[first.shard_id] == {
            "shard_id": first.shard_id,
            "points": 2,
            "done": True,
            "elapsed_s": None,
            "simulated": None,
            "cached": None,
        }
        assert stats[second.shard_id]["simulated"] == 2
        assert job.collect() == Executor(policy).run(specs)


class TestCircuitBlobs:
    """Each distinct circuit is stored once, as ``circuits/<digest>.json``
    in the job directory; store entries only name it."""

    def _ran(self, tmp_path, policy, count=10):
        specs = _specs(count)
        job = SweepJob.submit(tmp_path / "job", specs, policy, shard_size=2)
        job.run()
        return specs, job

    def test_ten_point_job_stores_the_shared_circuit_once(
        self, tmp_path, policy
    ):
        self._ran(tmp_path, policy)
        job_dir = tmp_path / "job"
        assert len(list((job_dir / "circuits").glob("*.json"))) == 1
        assert '"ops"' not in (job_dir / "manifest.json").read_text()
        entries = list((job_dir / "store").rglob("*.json"))
        assert len(entries) == 10
        assert not any('"ops"' in path.read_text() for path in entries)

    def test_load_rebuilds_the_submitted_specs(self, tmp_path, policy):
        specs, _ = self._ran(tmp_path, policy)
        loaded = SweepJob.load(tmp_path / "job")
        assert loaded.specs == specs
        # One rebuilt circuit per digest, shared by every spec and by
        # every decoder that names it.
        circuits = {id(spec.circuit) for spec in loaded.specs}
        circuits |= {id(spec.observable.decoder.circuit) for spec in loaded.specs}
        assert len(circuits) == 1

    def test_resumed_job_merges_bit_identical(self, tmp_path, policy):
        specs = _specs(4)
        SweepJob.submit(tmp_path / "job", specs, policy, shard_size=2).run(
            max_shards=1
        )
        resumed = SweepJob.load(tmp_path / "job")
        resumed.run()
        assert resumed.collect() == Executor(policy).run(specs)

    def _blob(self, tmp_path):
        (blob,) = (tmp_path / "job" / "circuits").glob("*.json")
        return blob

    def test_missing_blob_raises(self, tmp_path, policy):
        self._ran(tmp_path, policy, count=2)
        blob = self._blob(tmp_path)
        blob.unlink()
        with pytest.raises(JobError, match=re.escape(str(blob))):
            SweepJob.load(tmp_path / "job")

    def test_unreadable_blob_raises(self, tmp_path, policy):
        self._ran(tmp_path, policy, count=2)
        blob = self._blob(tmp_path)
        blob.write_text("{not json")
        with pytest.raises(JobError, match=re.escape(str(blob))):
            SweepJob.load(tmp_path / "job")

    def test_gate_index_past_the_pool_raises(self, tmp_path, policy):
        self._ran(tmp_path, policy, count=2)
        blob = self._blob(tmp_path)
        circuit = json.loads(blob.read_text())
        circuit["ops"][0]["gate"] = len(circuit["gates"])
        blob.write_text(json.dumps(circuit))
        with pytest.raises(JobError, match=re.escape(str(blob))):
            SweepJob.load(tmp_path / "job")

    def test_edited_blob_fails_the_job_id_check(self, tmp_path, policy):
        self._ran(tmp_path, policy, count=2)
        blob = self._blob(tmp_path)
        circuit = json.loads(blob.read_text())
        circuit["ops"].pop()
        blob.write_text(json.dumps(circuit))
        with pytest.raises(JobError, match="do not hash"):
            SweepJob.load(tmp_path / "job")
