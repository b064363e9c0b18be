"""The sweep job runner: submit, checkpoint, resume, collect.

A *job* is a durable directory representing one sweep — a batch of
:class:`~repro.runtime.RunSpec` points — split into deterministic
shards (:mod:`repro.jobs.planner`) and executed with per-shard
checkpointing against a content-keyed result store
(:mod:`repro.jobs.store`).  Layout::

    <job_dir>/
        manifest.json        # versioned: specs (wire form, circuits
                             # as digest references), shard plan
        circuits/<d>.json    # each distinct circuit's wire form, once
        shards/<id>.json     # one checkpoint per completed shard
        store/               # the result store

The contract that makes this a *service* rather than a script:

* **Submit is idempotent.**  Re-submitting the same sweep into an
  existing job directory verifies the job ID (a hash of the shard
  plan) and resumes; submitting a *different* sweep into it fails
  loudly instead of silently mixing results.
* **Resume is crash-safe.**  A killed run leaves complete shard
  checkpoints or none (atomic writes); the next :meth:`SweepJob.run`
  re-executes only shards without checkpoints, and the store serves
  any points the dead run finished inside an unfinished shard.
* **Merge is bit-identical.**  Every point keeps its own integer seed
  and the executor's stacking guarantee, so :meth:`SweepJob.collect`
  returns exactly what one uninterrupted
  :meth:`~repro.runtime.Executor.run` over the submitted specs would
  — pinned by ``tests/jobs/test_resume.py``.

With ``policy.parallel`` >= 2, shards fan out over
:func:`repro.runtime.pool.pool_map`; each worker warms its compile
cache with the job's circuits once, so shards sharing a circuit reuse
one compiled program instead of recompiling per shard or per point.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

from repro.core.circuit import Circuit
from repro.errors import AnalysisError, JobError, ReproError
from repro.jobs.planner import DEFAULT_SHARD_SIZE, Shard, plan_shards
from repro.jobs.store import (
    ResultStore,
    point_key,
    result_from_json,
    result_problem,
    result_to_json,
    write_json_atomic,
)
from repro.obs import (
    counter,
    gauge,
    histogram,
    stopwatch,
    trace,
)
from repro.runtime.executor import Executor
from repro.runtime.pool import pool_map, resolve_workers
from repro.runtime.serialization import (
    canonical_json,
    circuit_from_json,
    spec_from_json,
    spec_to_json,
)
from repro.runtime.spec import ExecutionPolicy, PointResult, RunSpec

__all__ = ["JOB_FORMAT_VERSION", "JobStatus", "RunReport", "SweepJob"]

#: Version of the manifest/checkpoint on-disk shape.  Version 2:
#: manifest policies and checkpoint results no longer carry an engine.
#: Version 3: job ids and shard ids hash policy-free point keys, and the
#: manifest policy records only the backend.  Version 4: the manifest
#: records no policy.  Version 5: manifest specs name their circuits
#: by digest, each circuit stored once under ``circuits/``.
JOB_FORMAT_VERSION = 5

MANIFEST_NAME = "manifest.json"
SHARD_DIR = "shards"
STORE_DIR = "store"
CIRCUIT_DIR = "circuits"

# Job-layer metrics (repro.obs): shard throughput plus the live
# done/total gauges a heartbeat reads mid-run.
_SHARDS_RUN = counter("jobs.shards.run")
_SHARD_SECONDS = histogram("jobs.shard_seconds")
_SHARDS_TOTAL = gauge("jobs.shards.total")
_SHARDS_DONE = gauge("jobs.shards.done")


def _write_circuit_blobs(job_dir: Path, circuits: dict[str, dict]) -> None:
    """Store each circuit wire form as ``<job_dir>/circuits/<digest>.json``.

    A blob is content-addressed, so one that already exists is never
    rewritten.  The manifest naming the blobs is written after them,
    so a crash never leaves a reference without its blob.
    """
    for digest, fragment in circuits.items():
        path = job_dir / CIRCUIT_DIR / f"{digest}.json"
        if not path.exists():
            write_json_atomic(path, fragment)


class _CircuitBlobs(dict):
    """A job directory's circuit blobs, each read and rebuilt on first use.

    The ``circuits`` mapping :func:`spec_from_json` resolves digest
    references against: every spec (and decoder) naming one digest
    shares one :class:`~repro.core.circuit.Circuit`.
    """

    def __init__(self, job_dir: Path):
        super().__init__()
        self.job_dir = job_dir

    def __missing__(self, digest: str) -> Circuit:
        path = self.job_dir / CIRCUIT_DIR / f"{digest}.json"
        try:
            circuit = circuit_from_json(json.loads(path.read_text()))
        except (OSError, ValueError, KeyError, TypeError, ReproError) as exc:
            raise JobError(
                f"circuit blob {path} is missing or unreadable: {exc}"
            ) from exc
        self[digest] = circuit
        return circuit


@dataclass(frozen=True)
class JobStatus:
    """A job's progress snapshot."""

    job_id: str
    shards_total: int
    shards_done: int
    points_total: int
    points_done: int

    @property
    def complete(self) -> bool:
        return self.shards_done == self.shards_total

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"job {self.job_id}: {self.shards_done}/{self.shards_total} "
            f"shards, {self.points_done}/{self.points_total} points"
        )


@dataclass(frozen=True)
class RunReport:
    """What one :meth:`SweepJob.run` call actually did.

    ``interrupted`` is True when a ``max_shards`` budget stopped the
    run before every pending shard executed — the job needs another
    :meth:`~SweepJob.run` (or a resubmit) to finish.
    """

    shards_run: int
    shards_skipped: int
    simulated_points: int
    cached_points: int
    interrupted: bool


def _manifest_problem(manifest: object) -> str | None:
    """What is wrong with a parsed manifest's shape, or ``None``."""
    if not isinstance(manifest, dict):
        return "not a JSON object"
    for name, kind in (("job_id", str), ("specs", list), ("shards", list)):
        if not isinstance(manifest.get(name), kind):
            return f"{name!r} is missing or not a {kind.__name__}"
    if not all(isinstance(spec, dict) for spec in manifest["specs"]):
        return "a spec is not a JSON object"
    for entry in manifest["shards"]:
        if not (
            isinstance(entry, dict)
            and isinstance(entry.get("id"), str)
            and isinstance(entry.get("indices"), list)
        ):
            return "a shard is not an {id, indices} object"
    return None


def _run_shard_specs(specs: list[RunSpec]) -> tuple[list[PointResult], float]:
    """Evaluate one shard's pending specs (also the pool's task function).

    The shard's executor opens no pool of its own: shards are the unit
    of fan-out, and a shard's points already stack into one plane array
    inside the executor.  Returns the results together with the shard's
    wall-clock seconds, measured where the shard ran (the parent's clock
    would include pool queueing).
    """
    with trace("jobs.shard", points=len(specs)):
        watch = stopwatch()
        results = Executor(ExecutionPolicy()).run(specs)
        elapsed = watch.elapsed_s
    return results, elapsed


class SweepJob:
    """One durable sharded sweep rooted at a job directory."""

    def __init__(
        self,
        job_dir: str | Path,
        specs: list[RunSpec],
        shards: list[Shard],
        policy: ExecutionPolicy,
        store: ResultStore,
        job_id: str,
    ):
        self.job_dir = Path(job_dir)
        self.specs = specs
        self.shards = shards
        self.policy = policy
        self.store = store
        self.job_id = job_id

    # ------------------------------------------------------------------
    # Creation
    # ------------------------------------------------------------------

    @staticmethod
    def _job_id(specs: Sequence[RunSpec]) -> str:
        """The sweep's identity: its ordered point keys, nothing else.

        Shard size is a scheduling choice, not part of what the sweep
        *is* — resubmitting the same points resumes under the
        manifest's stored plan even if the caller's ``shard_size``
        drifted.
        """
        payload = [point_key(spec) for spec in specs]
        return hashlib.sha256(canonical_json(payload).encode()).hexdigest()[:16]

    @classmethod
    def submit(
        cls,
        job_dir: str | Path,
        specs: Sequence[RunSpec],
        policy: ExecutionPolicy | None = None,
        shard_size: int = DEFAULT_SHARD_SIZE,
    ) -> "SweepJob":
        """Create (or resume) the job for ``specs`` under ``job_dir``.

        Writes the manifest on first submit; on resubmit verifies the
        existing manifest describes the *same* sweep (matching job ID)
        and raises :class:`~repro.errors.JobError` otherwise.  Results
        go to the store at ``<job_dir>/store``.  A resubmitted job runs
        under ``policy`` (the environment's when ``None``), like a
        fresh one.
        """
        with trace("jobs.submit") as span:
            job = cls._submit_impl(job_dir, specs, policy, shard_size)
            span.set(
                job=job.job_id,
                points=len(job.specs),
                shards=len(job.shards),
            )
        return job

    @classmethod
    def _submit_impl(cls, job_dir, specs, policy, shard_size):
        job_dir = Path(job_dir)
        specs = list(specs)
        if not specs:
            raise AnalysisError("a sweep job needs at least one spec")
        if policy is None:
            policy = ExecutionPolicy.from_env()
        shards = plan_shards(specs, shard_size)
        job_id = cls._job_id(specs)
        manifest_path = job_dir / MANIFEST_NAME
        if manifest_path.exists():
            existing = cls.load(job_dir)
            if existing.job_id != job_id:
                raise JobError(
                    f"{job_dir} already holds job {existing.job_id}, which "
                    f"is a different sweep than the one submitted "
                    f"({job_id}); use a fresh job directory"
                )
            # Same sweep: resume under the manifest's stored shard
            # plan (shard_size is scheduling, not identity) and the
            # caller's policy.
            existing.policy = policy
            return existing
        circuits: dict[str, dict] = {}
        manifest = {
            "format": JOB_FORMAT_VERSION,
            "job_id": job_id,
            "specs": [spec_to_json(spec, circuits) for spec in specs],
            "shards": [
                {"id": shard.shard_id, "indices": list(shard.indices)}
                for shard in shards
            ],
        }
        _write_circuit_blobs(job_dir, circuits)
        write_json_atomic(manifest_path, manifest)
        store = ResultStore(job_dir / STORE_DIR)
        return cls(job_dir, specs, shards, policy, store, job_id)

    @classmethod
    def load(cls, job_dir: str | Path) -> "SweepJob":
        """Open an existing job from its manifest.

        The specs are rebuilt from their JSON wire forms — this is the
        resume path, and it is why the wire form must be
        value-faithful: the reloaded job verifies its shard plan
        hashes to the manifest's job ID, so a manifest (or circuit
        blob) whose specs no longer reproduce their own plan fails
        here instead of merging wrong numbers later.  Each distinct
        circuit blob is read once and rebuilt into one
        :class:`~repro.core.circuit.Circuit` that every spec naming it
        shares.  A spec that cannot be rebuilt (wrong shape, bad digest,
        missing or unreadable blob) raises
        :class:`~repro.errors.JobError` naming the manifest and the
        spec's index.
        """
        job_dir = Path(job_dir)
        manifest_path = job_dir / MANIFEST_NAME
        try:
            manifest = json.loads(manifest_path.read_text())
        except OSError as exc:
            raise JobError(f"no job manifest at {manifest_path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise JobError(
                f"job manifest {manifest_path} is corrupt: {exc}"
            ) from exc
        problem = _manifest_problem(manifest)
        if problem is not None:
            raise JobError(
                f"job manifest {manifest_path} is malformed: {problem}"
            )
        if manifest.get("format") != JOB_FORMAT_VERSION:
            raise JobError(
                f"job manifest {manifest_path} has format "
                f"{manifest.get('format')!r}; this code reads "
                f"{JOB_FORMAT_VERSION}"
            )
        # No policy field can change a result, so the manifest records
        # none and a resume runs under the environment's policy.
        policy = ExecutionPolicy.from_env()
        circuits = _CircuitBlobs(job_dir)
        specs = []
        for index, data in enumerate(manifest["specs"]):
            try:
                specs.append(spec_from_json(data, circuits))
            except ReproError as exc:
                raise JobError(
                    f"job manifest {manifest_path} spec {index} cannot be "
                    f"rebuilt: {exc}"
                ) from exc
        shards = [
            Shard(entry["id"], tuple(entry["indices"]))
            for entry in manifest["shards"]
        ]
        job_id = manifest["job_id"]
        # The reloaded specs must hash back to the manifest's job ID —
        # this is where a wire form that is not value-faithful (or a
        # hand-edited manifest) fails, instead of merging wrong
        # numbers later.
        if cls._job_id(specs) != job_id:
            raise JobError(
                f"job manifest {manifest_path} specs do not hash to its "
                f"job id; the manifest was edited or corrupted"
            )
        covered = sorted(i for shard in shards for i in shard.indices)
        if covered != list(range(len(specs))):
            raise JobError(
                f"job manifest {manifest_path} shard plan does not cover "
                f"each spec exactly once; the manifest was edited or "
                f"corrupted"
            )
        store = ResultStore(job_dir / STORE_DIR)
        return cls(job_dir, specs, shards, policy, store, job_id)

    # ------------------------------------------------------------------
    # Checkpoints
    # ------------------------------------------------------------------

    def _shard_path(self, shard: Shard) -> Path:
        return self.job_dir / SHARD_DIR / f"{shard.shard_id}.json"

    def _load_checkpoint(self, shard: Shard) -> list[PointResult] | None:
        """The shard's checkpointed results, or ``None`` if not done.

        An unreadable checkpoint counts as *not done* (a crash can
        leave none, never a torn one — but a foreign file could sit
        there) while a readable checkpoint that contradicts the
        manifest raises: that is corruption, not interruption.
        """
        path = self._shard_path(shard)
        if not path.exists():
            return None
        try:
            data = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            return None
        if (
            not isinstance(data, dict)
            or data.get("format") != JOB_FORMAT_VERSION
            or data.get("shard_id") != shard.shard_id
            or data.get("job_id") != self.job_id
        ):
            raise JobError(
                f"shard checkpoint {path} does not belong to this job; "
                f"delete it to re-run the shard"
            )
        points = data.get("points")
        if (
            not isinstance(points, list)
            or not all(isinstance(point, dict) for point in points)
            or [point.get("index") for point in points] != list(shard.indices)
        ):
            raise JobError(
                f"shard checkpoint {path} covers different points than the "
                f"manifest plans; delete it to re-run the shard"
            )
        results = []
        for entry in points:
            result = entry.get("result")
            problem = result_problem(result, self.specs[entry["index"]].trials)
            if problem is not None:
                raise JobError(
                    f"shard checkpoint {path} holds counts inconsistent "
                    f"with the manifest spec ({problem}); delete it to re-run"
                )
            results.append(result_from_json(result))
        return results

    def _write_checkpoint(
        self,
        shard: Shard,
        results: Sequence[PointResult],
        stats: dict | None = None,
    ) -> None:
        payload = {
            "format": JOB_FORMAT_VERSION,
            "job_id": self.job_id,
            "shard_id": shard.shard_id,
            "points": [
                {"index": index, "result": result_to_json(result)}
                for index, result in zip(shard.indices, results)
            ],
        }
        if stats is not None:
            # Observational only (elapsed seconds, simulated/cached
            # split for `status --verbose`): never key material, and
            # absent from checkpoints written by older runs — readers
            # must treat it as optional.
            payload["stats"] = stats
        write_json_atomic(self._shard_path(shard), payload)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run(
        self,
        max_shards: int | None = None,
        on_progress=None,
    ) -> RunReport:
        """Execute every unfinished shard (optionally at most ``max_shards``).

        Completed shards are skipped by checkpoint; within a resumed
        shard, points the store already holds are served, not re-run.
        The policy's ``parallel`` width fans pending shards out to the
        process pool, whose workers pre-warm their compile caches with
        the shards' circuits.  ``on_progress``, when given, is called
        after each pending shard finishes with ``(done, pending_total,
        shard_id, elapsed_s)`` — the CLI's verbose heartbeat.
        """
        with trace("jobs.run", job=self.job_id) as span:
            return self._run_impl(max_shards, on_progress, span)

    def _run_impl(self, max_shards, on_progress, span) -> RunReport:
        if max_shards is not None and max_shards < 0:
            raise AnalysisError(f"max_shards must be >= 0, got {max_shards}")
        pending: list[Shard] = []
        skipped = 0
        for shard in self.shards:
            if self._load_checkpoint(shard) is None:
                pending.append(shard)
            else:
                skipped += 1
        interrupted = False
        if max_shards is not None and len(pending) > max_shards:
            pending = pending[:max_shards]
            interrupted = True
        _SHARDS_TOTAL.set(len(self.shards))
        _SHARDS_DONE.set(skipped)
        span.set(
            shards=len(self.shards), pending=len(pending), skipped=skipped
        )
        simulated = 0
        cached = 0
        completed = 0
        shard_stats: dict[str, dict] = {}
        # Store lookups and puts happen in the parent (single
        # reader/writer); shards only ever simulate what the store does
        # not hold.
        plan: list[tuple[Shard, list[PointResult | None], list[int]]] = []
        for shard in pending:
            results: list[PointResult | None] = [None] * len(shard.indices)
            misses: list[int] = []
            for position, index in enumerate(shard.indices):
                stored = self.store.get(self.specs[index])
                if stored is None:
                    misses.append(position)
                else:
                    results[position] = stored
                    cached += 1
            plan.append((shard, results, misses))
        to_simulate = [entry for entry in plan if entry[2]]
        batches = [
            [self.specs[shard.indices[i]] for i in misses]
            for shard, _, misses in to_simulate
        ]
        outcomes = pool_map(
            _run_shard_specs,
            batches,
            resolve_workers(self.policy.parallel, len(batches)),
            error=JobError,
            label=lambda b: f"shard {to_simulate[b][0].shard_id}",
            warm=[spec.circuit for batch in batches for spec in batch],
        )
        # Outcomes first: zip then drains the generator, which shuts the
        # pool down before any checkpoint is written.
        for (computed, elapsed), (shard, results, misses) in zip(
            outcomes, to_simulate
        ):
            simulated += len(misses)
            for position, result in zip(misses, computed):
                results[position] = result
                self.store.put(self.specs[shard.indices[position]], result)
            completed += 1
            shard_stats[shard.shard_id] = {
                "elapsed_s": elapsed,
                "simulated": len(misses),
                "cached": len(shard.indices) - len(misses),
            }
            _SHARDS_RUN.inc()
            _SHARDS_DONE.inc()
            _SHARD_SECONDS.observe(elapsed)
            if on_progress is not None:
                on_progress(completed, len(pending), shard.shard_id, elapsed)
        # Checkpoints are written only once every point of the shard is
        # in hand — a crash between store puts and here re-runs nothing
        # but the shard's bookkeeping.
        for shard, results, misses in plan:
            stats = shard_stats.get(shard.shard_id)
            if stats is None:
                # The whole shard was served from the store: no compute
                # happened, but the shard still completes this run.
                stats = {
                    "elapsed_s": 0.0,
                    "simulated": 0,
                    "cached": len(shard.indices),
                }
                completed += 1
                _SHARDS_DONE.inc()
                if on_progress is not None:
                    on_progress(completed, len(pending), shard.shard_id, 0.0)
            self._write_checkpoint(shard, results, stats)  # type: ignore[arg-type]
        span.set(simulated=simulated, cached=cached)
        return RunReport(
            shards_run=len(plan),
            shards_skipped=skipped,
            simulated_points=simulated,
            cached_points=cached,
            interrupted=interrupted,
        )

    # ------------------------------------------------------------------
    # Inspection and merge
    # ------------------------------------------------------------------

    def status(self) -> JobStatus:
        """Shard/point completion counts from the checkpoints on disk."""
        done = 0
        points_done = 0
        for shard in self.shards:
            if self._load_checkpoint(shard) is not None:
                done += 1
                points_done += len(shard)
        return JobStatus(
            job_id=self.job_id,
            shards_total=len(self.shards),
            shards_done=done,
            points_total=len(self.specs),
            points_done=points_done,
        )

    def shard_stats(self) -> list[dict]:
        """Per-shard progress rows for verbose status output.

        One dict per planned shard — ``shard_id``, ``points``,
        ``done``, and (for checkpoints that recorded a stats block)
        ``elapsed_s``/``simulated``/``cached``.  Checkpoints written
        before stats existed report ``None`` for those three; the
        fields are observational and never affect results or keys.
        """
        rows: list[dict] = []
        for shard in self.shards:
            done = self._load_checkpoint(shard) is not None
            stats: dict = {}
            if done:
                try:
                    stats = (
                        json.loads(self._shard_path(shard).read_text()).get(
                            "stats"
                        )
                        or {}
                    )
                except (OSError, json.JSONDecodeError):
                    stats = {}
            rows.append(
                {
                    "shard_id": shard.shard_id,
                    "points": len(shard),
                    "done": done,
                    "elapsed_s": stats.get("elapsed_s"),
                    "simulated": stats.get("simulated"),
                    "cached": stats.get("cached"),
                }
            )
        return rows

    def collect(self) -> list[PointResult]:
        """Merge every shard checkpoint into spec-order results.

        Raises :class:`~repro.errors.AnalysisError` when nothing has
        completed (an empty store has nothing to merge — the classic
        way to get here is collecting before running) or when shards
        are still missing; a partial merge would silently misrepresent
        the sweep.
        """
        with trace("jobs.collect", job=self.job_id) as span:
            results = self._collect_impl()
            span.set(points=len(results), shards=len(self.shards))
        return results

    def _collect_impl(self) -> list[PointResult]:
        results: list[PointResult | None] = [None] * len(self.specs)
        missing = []
        done = 0
        for shard in self.shards:
            checkpoint = self._load_checkpoint(shard)
            if checkpoint is None:
                missing.append(shard.shard_id)
                continue
            done += 1
            for index, result in zip(shard.indices, checkpoint):
                results[index] = result
        if done == 0:
            raise AnalysisError(
                f"job {self.job_id} has no completed shards to collect — "
                f"the result store is empty for this sweep; run the job "
                f"first"
            )
        if missing:
            raise AnalysisError(
                f"job {self.job_id} is incomplete: {len(missing)} of "
                f"{len(self.shards)} shards still pending "
                f"({', '.join(missing[:4])}{'...' if len(missing) > 4 else ''}); "
                f"resume with run() before collecting"
            )
        return results  # type: ignore[return-value]
