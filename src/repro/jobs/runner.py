"""The sweep job runner: submit, run, resume, collect.

A *job* is a durable directory representing one sweep — a batch of
:class:`~repro.runtime.RunSpec` points — split into deterministic
shards (:mod:`repro.jobs.planner`) whose results go to a content-keyed
result store (:mod:`repro.jobs.store`).  Layout::

    <job_dir>/
        manifest.json        # versioned: specs (wire form, circuits
                             # as digest references), shard plan
        circuits/<d>.json    # each distinct circuit's wire form, once
        store/               # the result store: the job's only results
        shards/<id>.json     # a stats-only run log per shard run

The contract that makes this a *service* rather than a script:

* **Submit is idempotent.**  Re-submitting the same sweep into an
  existing job directory verifies the job ID (a hash of the ordered
  point keys) and the manifest's specs, and resumes; submitting a
  *different* sweep into it fails loudly instead of silently mixing
  results.  Submit and load compute each point's store address once,
  and nothing later serialises or hashes a spec.
* **The store is the one record.**  A shard is done when every one of
  its points has a store entry; nothing else decides it.  A run log
  holds only observational stats (elapsed seconds, simulated vs served
  points) for ``status --verbose``, so deleting ``shards/`` changes no
  result and no shard's done state.
* **Resume is crash-safe.**  Store writes are atomic, so a killed run
  leaves complete entries or none; the next :meth:`SweepJob.run`
  simulates only the points of shards with a missing entry.
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
from repro.jobs.caching import _SERVED, lookup, record
from repro.jobs.planner import DEFAULT_SHARD_SIZE, Shard, plan_shards
from repro.jobs.store import ResultStore, point_address, write_json_atomic
from repro.obs import counter, stopwatch, trace
from repro.runtime.executor import Executor
from repro.runtime.pool import pool_map, resolve_workers
from repro.runtime.serialization import (
    canonical_json,
    circuit_from_json,
    spec_from_json,
)
from repro.runtime.spec import ExecutionPolicy, PointResult, RunSpec

__all__ = ["JOB_FORMAT_VERSION", "JobStatus", "RunReport", "SweepJob"]

#: Version of a job directory's on-disk shape.  Version 2: manifest
#: policies and checkpoint results no longer carry an engine.  Version
#: 3: job ids and shard ids hash policy-free point keys, and the
#: manifest policy records only the backend.  Version 4: the manifest
#: records no policy.  Version 5: manifest specs name their circuits
#: by digest, each circuit stored once under ``circuits/``.  Version 6:
#: the store alone holds results and done state; ``shards/`` holds
#: stats-only run logs.
JOB_FORMAT_VERSION = 6

MANIFEST_NAME = "manifest.json"
RUN_LOG_DIR = "shards"
STORE_DIR = "store"
CIRCUIT_DIR = "circuits"

#: The observational fields of a shard's run log, besides its ids.
_RUN_LOG_STATS = ("elapsed_s", "simulated", "cached")

# Shards simulated, across every job of the process (repro.obs).  Each
# shard's time is its ``jobs.shard`` span and its run log's elapsed_s.
_SHARDS_RUN = counter("jobs.shards.run")


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


def _addresses(
    specs: Sequence[RunSpec], where: str, circuits: dict | None = None
) -> list[tuple[str, dict]]:
    """Each spec's store address; a spec without one cannot join a job."""
    addresses = [point_address(spec, circuits) for spec in specs]
    if None in addresses:
        index = addresses.index(None)
        raise JobError(
            f"{where}spec {index} has seed {specs[index].seed!r}; a sweep "
            f"job requires integer per-point seeds (spawn them with "
            f"repro.noise.seeds.spawn_seeds)"
        )
    return addresses


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
    """What is wrong with a parsed manifest, or ``None``."""
    if not isinstance(manifest, dict):
        return "not a JSON object"
    if manifest.get("format") != JOB_FORMAT_VERSION:
        return (
            f"it has format {manifest.get('format')!r}; this code reads "
            f"{JOB_FORMAT_VERSION}"
        )
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
            and all(type(index) is int for index in entry["indices"])
        ):
            return "a shard is not an {id, integer indices} object"
    covered = sorted(i for entry in manifest["shards"] for i in entry["indices"])
    if covered != list(range(len(manifest["specs"]))):
        return "the shard plan does not cover each spec exactly once"
    return None


def _read_manifest(path: Path) -> tuple[dict, list[Shard]]:
    """The manifest at ``path`` and its shard plan; any problem raises
    :class:`~repro.errors.JobError` naming the file."""
    try:
        manifest = json.loads(path.read_text())
    except OSError as exc:
        raise JobError(f"no job manifest at {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise JobError(f"job manifest {path} is corrupt: {exc}") from exc
    problem = _manifest_problem(manifest)
    if problem is not None:
        raise JobError(f"job manifest {path} is unusable: {problem}")
    return manifest, [Shard(e["id"], tuple(e["indices"])) for e in manifest["shards"]]


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
        addresses: list[tuple[str, dict]],
        shards: list[Shard],
        policy: ExecutionPolicy,
    ):
        self.job_dir = Path(job_dir)
        self.specs = specs
        self.addresses = addresses
        self.shards = shards
        self.policy = policy
        self.store = ResultStore(self.job_dir / STORE_DIR)
        self.job_id = self._job_id(addresses)

    # ------------------------------------------------------------------
    # Creation
    # ------------------------------------------------------------------

    @staticmethod
    def _job_id(addresses: Sequence[tuple[str, dict]]) -> str:
        """The sweep's identity: its ordered point keys, nothing else.

        Shard size is a scheduling choice, not part of what the sweep
        *is* — resubmitting the same points resumes under the
        manifest's stored plan even if the caller's ``shard_size``
        drifted.
        """
        keys = [key for key, _ in addresses]
        return hashlib.sha256(canonical_json(keys).encode()).hexdigest()[:16]

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
        existing manifest describes the *same* sweep (matching job ID
        and spec wire forms) and raises :class:`~repro.errors.JobError`
        otherwise.  Results go to the store at ``<job_dir>/store``.  A
        resubmitted job runs under ``policy`` (the environment's when
        ``None``), like a fresh one.
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
        circuits: dict[str, dict] = {}
        addresses = _addresses(specs, "", circuits)
        wires = [wire for _, wire in addresses]
        job_id = cls._job_id(addresses)
        manifest_path = job_dir / MANIFEST_NAME
        if manifest_path.exists():
            # Same sweep: resume under the manifest's stored shard
            # plan (shard_size is scheduling, not identity) and the
            # caller's policy and specs.
            manifest, shards = _read_manifest(manifest_path)
            if manifest["job_id"] != job_id or manifest["specs"] != wires:
                raise JobError(
                    f"{job_dir} already holds job {manifest['job_id']}, "
                    f"whose specs are a different sweep than the one "
                    f"submitted ({job_id}); use a fresh job directory"
                )
            _write_circuit_blobs(job_dir, circuits)
        else:
            shards = plan_shards(specs, [key for key, _ in addresses], shard_size)
            _write_circuit_blobs(job_dir, circuits)
            write_json_atomic(
                manifest_path,
                {
                    "format": JOB_FORMAT_VERSION,
                    "job_id": job_id,
                    "specs": wires,
                    "shards": [
                        {"id": shard.shard_id, "indices": list(shard.indices)}
                        for shard in shards
                    ],
                },
            )
        return cls(job_dir, specs, addresses, shards, policy)

    @classmethod
    def load(cls, job_dir: str | Path) -> "SweepJob":
        """Open an existing job from its manifest.

        The specs are rebuilt from their JSON wire forms — this is the
        resume path, and it is why the wire form must be
        value-faithful: the reloaded job verifies its specs hash to
        the manifest's job ID, so a manifest (or circuit blob) whose
        specs no longer reproduce their own keys fails here instead of
        merging wrong numbers later.  Each distinct circuit blob is
        read once and rebuilt into one
        :class:`~repro.core.circuit.Circuit` that every spec naming it
        shares.  A spec that cannot be rebuilt (wrong shape, bad digest,
        missing or unreadable blob) or has no store address raises
        :class:`~repro.errors.JobError` naming the manifest and the
        spec's index.
        """
        job_dir = Path(job_dir)
        manifest_path = job_dir / MANIFEST_NAME
        manifest, shards = _read_manifest(manifest_path)
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
        # No policy field can change a result, so the manifest records
        # none and a resume runs under the environment's policy.
        job = cls(
            job_dir,
            specs,
            _addresses(specs, f"job manifest {manifest_path} "),
            shards,
            ExecutionPolicy.from_env(),
        )
        # The reloaded specs must hash back to the manifest's job ID —
        # this is where a wire form that is not value-faithful (or a
        # hand-edited manifest) fails, instead of merging wrong
        # numbers later.
        if job.job_id != manifest["job_id"]:
            raise JobError(
                f"job manifest {manifest_path} specs do not hash to its "
                f"job id; the manifest was edited or corrupted"
            )
        return job

    # ------------------------------------------------------------------
    # Run logs
    # ------------------------------------------------------------------

    def _run_log_path(self, shard: Shard) -> Path:
        return self.job_dir / RUN_LOG_DIR / f"{shard.shard_id}.json"

    def _write_run_log(self, shard: Shard, elapsed_s: float, simulated: int) -> None:
        write_json_atomic(
            self._run_log_path(shard),
            {
                "job_id": self.job_id,
                "shard_id": shard.shard_id,
                "elapsed_s": elapsed_s,
                "simulated": simulated,
                "cached": len(shard) - simulated,
            },
        )

    def _read_run_log(self, shard: Shard) -> dict:
        """The shard's last run log, or ``{}`` when missing, unreadable,
        or written for another job or shard.

        A log is observational only: no result, key or done state ever
        depends on it.
        """
        try:
            log = json.loads(self._run_log_path(shard).read_text())
        except (OSError, ValueError):
            return {}
        if (
            isinstance(log, dict)
            and log.get("job_id") == self.job_id
            and log.get("shard_id") == shard.shard_id
            and all(
                isinstance(log.get(name), (int, float))
                for name in _RUN_LOG_STATS
            )
        ):
            return log
        return {}

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def _done_shards(self) -> list[bool]:
        """Per shard, whether the store holds every one of its points."""
        return [
            all(self.addresses[index][0] in self.store for index in shard.indices)
            for shard in self.shards
        ]

    def run(
        self,
        max_shards: int | None = None,
        on_progress=None,
    ) -> RunReport:
        """Execute every unfinished shard (optionally at most ``max_shards``).

        A shard is unfinished while the store lacks one of its points;
        within it, points the store already holds are served, not
        re-run (the ``jobs.cache.*`` counters count a done shard's
        points as served).  The policy's ``parallel`` width fans
        pending shards out to the process pool, whose workers pre-warm their compile
        caches with the shards' circuits.  Each shard that simulates
        leaves a run log.  ``on_progress``, when given, is called after
        each such shard finishes with ``(done, shards_to_simulate,
        shard_id, elapsed_s)`` — the CLI's verbose heartbeat.
        """
        with trace("jobs.run", job=self.job_id) as span:
            return self._run_impl(max_shards, on_progress, span)

    def _run_impl(self, max_shards, on_progress, span) -> RunReport:
        if max_shards is not None and max_shards < 0:
            raise AnalysisError(f"max_shards must be >= 0, got {max_shards}")
        done = self._done_shards()
        pending = [shard for shard, ok in zip(self.shards, done) if not ok]
        skipped = len(self.shards) - len(pending)
        _SERVED.inc(sum(len(shard) for shard, ok in zip(self.shards, done) if ok))
        interrupted = False
        if max_shards is not None and len(pending) > max_shards:
            pending = pending[:max_shards]
            interrupted = True
        span.set(
            shards=len(self.shards), pending=len(pending), skipped=skipped
        )
        # Store lookups and puts happen in the parent (single
        # reader/writer); shards only ever simulate what the store does
        # not hold.  A pending shard whose points all turn up stored
        # (another run finished them meanwhile) needs no task.
        plan: list[tuple[Shard, list[int]]] = []
        for shard in pending:
            _, misses = lookup(
                self.store, [self.addresses[index] for index in shard.indices]
            )
            if misses:
                plan.append((shard, [shard.indices[i] for i in misses]))
        batches = [[self.specs[index] for index in misses] for _, misses in plan]
        outcomes = pool_map(
            _run_shard_specs,
            batches,
            resolve_workers(self.policy.parallel, len(plan)),
            error=JobError,
            label=lambda b: f"shard {plan[b][0].shard_id}",
            warm=[spec.circuit for batch in batches for spec in batch],
        )
        # Outcomes first: zip then drains the generator, which shuts the
        # pool down once the last shard is in.
        for completed, ((computed, elapsed), (shard, misses)) in enumerate(
            zip(outcomes, plan), start=1
        ):
            record(self.store, [self.addresses[i] for i in misses], computed)
            self._write_run_log(shard, elapsed, len(misses))
            _SHARDS_RUN.inc()
            if on_progress is not None:
                on_progress(completed, len(plan), shard.shard_id, elapsed)
        simulated = sum(len(misses) for _, misses in plan)
        cached = sum(len(shard) for shard in pending) - simulated
        span.set(simulated=simulated, cached=cached)
        return RunReport(
            shards_run=len(pending),
            shards_skipped=skipped,
            simulated_points=simulated,
            cached_points=cached,
            interrupted=interrupted,
        )

    # ------------------------------------------------------------------
    # Inspection and merge
    # ------------------------------------------------------------------

    def status(self) -> JobStatus:
        """Shard/point completion counts, from which store entries exist."""
        done = self._done_shards()
        return JobStatus(
            job_id=self.job_id,
            shards_total=len(self.shards),
            shards_done=sum(done),
            points_total=len(self.specs),
            points_done=sum(
                len(shard) for shard, ok in zip(self.shards, done) if ok
            ),
        )

    def shard_stats(self) -> list[dict]:
        """Per-shard progress rows for verbose status output.

        One dict per planned shard — ``shard_id``, ``points``,
        ``done``, and, for a done shard whose run log is readable,
        ``elapsed_s``/``simulated``/``cached`` (``None`` otherwise).
        The log is observational: deleting it changes nothing else.
        """
        rows: list[dict] = []
        for shard, done in zip(self.shards, self._done_shards()):
            log = self._read_run_log(shard) if done else {}
            rows.append(
                {
                    "shard_id": shard.shard_id,
                    "points": len(shard),
                    "done": done,
                    **{name: log.get(name) for name in _RUN_LOG_STATS},
                }
            )
        return rows

    def collect(self) -> list[PointResult]:
        """Read every point back from the store, in spec order.

        Each point is read and verified through
        :meth:`~repro.jobs.store.ResultStore.get`, so a stale or
        tampered entry raises :class:`~repro.errors.JobError` naming
        its file.  Raises :class:`~repro.errors.AnalysisError` when no
        shard is done (the classic way to get here is collecting
        before running) or when shards are still missing; a partial
        merge would silently misrepresent the sweep.
        """
        with trace("jobs.collect", job=self.job_id) as span:
            results = self._collect_impl()
            span.set(points=len(results), shards=len(self.shards))
        return results

    def _collect_impl(self) -> list[PointResult]:
        results = [self.store.get(address) for address in self.addresses]
        missing = [
            shard.shard_id
            for shard in self.shards
            if any(results[index] is None for index in shard.indices)
        ]
        if len(missing) == len(self.shards):
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
