"""The content-keyed result store: durable Monte-Carlo point results.

Every Monte-Carlo point in this repository is fully determined by its
:class:`~repro.runtime.RunSpec` (circuit content, input, observable,
noise, trials, integer seed).  No field of the
:class:`~repro.runtime.ExecutionPolicy` can change a number — pool
width and batching are execution details — so the policy is
deliberately **not** part of the key, nor recorded with the entry.

:func:`point_key` hashes exactly that determining tuple (through the
versioned JSON wire form of :mod:`repro.runtime.serialization`), and
:class:`ResultStore` is a directory of one small JSON file per key.
Properties the job layer leans on:

* **Cache hits on repeat queries.**  Re-submitting a sweep whose
  points are already stored costs file reads, not simulation.
* **Crash safety.**  Writes go to a temp file and ``os.replace`` into
  place, so a killed run leaves complete entries or none — never a
  half-written one that resume would trust.
* **Stale/corrupt detection, never silent serving.**  Entries embed
  their own key, format version, and full spec wire form; a lookup
  re-verifies all three and raises :class:`~repro.errors.JobError` on
  any mismatch.  An entry produced under a different RNG stream
  version simply has a different key and is a clean miss.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path

from repro._version import __version__
from repro.errors import JobError
from repro.obs import counter
from repro.runtime.serialization import (
    canonical_json,
    compress_for_hashing,
    spec_to_json,
)
from repro.runtime.spec import PointResult, RunSpec

__all__ = [
    "RESULT_STREAM_VERSION",
    "STORE_FORMAT_VERSION",
    "ResultStore",
    "point_key",
    "result_from_json",
    "result_problem",
    "result_to_json",
]

#: Version of a store entry's on-disk shape.  Bump on layout changes.
#: Version 2: keys, provenance and results no longer carry an engine.
#: Version 3: keys no longer carry a fusion flag (circuits always
#: compile fused), and provenance no longer records one.
STORE_FORMAT_VERSION = 3

#: Version of the Monte-Carlo RNG stream contract.  The frozen digests in
#: ``tests/noise/test_engine_determinism.py`` pin the streams; if they
#: are ever deliberately re-recorded, bump this so every pre-change
#: store entry stops matching instead of serving results from a stream
#: that no longer exists.  Version 2: faults are drawn through the
#: stacked kernel instead of one draw per op (this moved only the
#: since-retired unfused stream; the fused stream is unchanged).
RESULT_STREAM_VERSION = 2


def _key_from_wire(spec_json: dict) -> str:
    # Hash the digest-compressed payload: embedded circuit fragments
    # collapse to their (memoised) content digests, so keying a
    # 10-point sweep serializes the shared circuit once, not 20 times.
    payload = {
        "format": STORE_FORMAT_VERSION,
        "stream": RESULT_STREAM_VERSION,
        "spec": compress_for_hashing(spec_json),
    }
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


_RESULT_FIELDS = ("failures", "trials", "faulted_trials")


def _require_integer_seed(spec: RunSpec) -> None:
    if not isinstance(spec.seed, int):
        raise JobError(
            f"a stored point must be reproducible, which needs an integer "
            f"seed; got {spec.seed!r} (spawn per-point seeds with "
            f"repro.harness.sweep.spawn_seeds)"
        )


def point_key(spec: RunSpec) -> str:
    """The content key determining one point's result, as a hex digest.

    Hashes the spec's JSON wire form together with the stream/format
    versions — everything that can change a failure count, and nothing
    that cannot.  Requires a
    concrete integer seed: a ``None`` or generator seed draws from an
    unreproducible stream, and a store keyed on it would serve numbers
    no one can ever check.
    """
    _require_integer_seed(spec)
    return _key_from_wire(spec_to_json(spec))


def result_problem(block: object, trials: int) -> str | None:
    """What is wrong with a stored result block, or ``None`` if sane.

    The one count check shared by store entries and shard checkpoints:
    the block must be a dict of integer ``failures``/``trials``/
    ``faulted_trials`` with ``trials`` equal to the spec's and both
    counts within ``[0, trials]``.  Readers raise
    :class:`~repro.errors.JobError` naming their file on any problem.
    """
    if not isinstance(block, dict):
        return "missing result block"
    counts = [block.get(name) for name in _RESULT_FIELDS]
    if not all(type(count) is int for count in counts):
        return "result counts are not integers"
    failures, stored_trials, faulted = counts
    if stored_trials != trials:
        return f"stored trials {stored_trials} != spec trials {trials}"
    if not (0 <= failures <= trials and 0 <= faulted <= trials):
        return "result counts out of range"
    return None


def result_to_json(result: PointResult) -> dict:
    """The stored form of a result block."""
    return {name: getattr(result, name) for name in _RESULT_FIELDS}


def result_from_json(block: dict) -> PointResult:
    """Rebuild a result block that :func:`result_problem` passed."""
    return PointResult(**{name: block[name] for name in _RESULT_FIELDS})


# Store traffic metrics (repro.obs).  Dual-accounted with the
# per-instance ints: instance counters answer "what did THIS store see"
# (the stats() contract the tests pin), the registry counters aggregate
# across every store in the process for trace/metrics dumps.
_STORE_HITS = counter("jobs.store.hit")
_STORE_MISSES = counter("jobs.store.miss")
_STORE_PUTS = counter("jobs.store.put")
_STORE_STALE = counter("jobs.store.stale")


class ResultStore:
    """A directory of JSON point results keyed by :func:`point_key`.

    Entries live two levels deep (``<root>/<key[:2]>/<key>.json``) so
    a million-point store never puts a million files in one directory.
    The store counts its traffic — ``hits``/``misses``/``puts``/
    ``stale`` — which is how the tests assert "served entirely from
    the store, zero simulation".
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.stale = 0

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def get(self, spec: RunSpec) -> PointResult | None:
        """The stored result for ``spec``, or ``None``.

        A present-but-wrong entry — unreadable JSON, foreign format
        version, key not matching the content, spec wire form not
        matching the request, insane counts — raises
        :class:`~repro.errors.JobError` naming the file.  Detection is
        the contract: a stale entry must never be silently served *or*
        silently recomputed over.
        """
        # One serialization serves both the key and the verification
        # compare — the warm path's cost is file reads plus this.
        _require_integer_seed(spec)
        spec_json = spec_to_json(spec)
        key = _key_from_wire(spec_json)
        path = self._path(key)
        if not path.exists():
            self.misses += 1
            _STORE_MISSES.inc()
            return None
        try:
            entry = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            self.stale += 1
            _STORE_STALE.inc()
            raise JobError(
                f"result store entry {path} is unreadable: {exc}; delete "
                f"it to recompute"
            ) from exc
        self._verify(entry, key, spec, spec_json, path)
        self.hits += 1
        _STORE_HITS.inc()
        return result_from_json(entry["result"])

    def _verify(
        self, entry: object, key: str, spec: RunSpec, spec_json: dict, path: Path
    ) -> None:
        problems = []
        if not isinstance(entry, dict):
            problems.append("entry is not a JSON object")
        else:
            if entry.get("format") != STORE_FORMAT_VERSION:
                problems.append(
                    f"format {entry.get('format')!r} != {STORE_FORMAT_VERSION}"
                )
            if entry.get("key") != key:
                problems.append("embedded key does not match the content key")
            if entry.get("spec") != spec_json:
                problems.append("stored spec differs from the requested spec")
            problem = result_problem(entry.get("result"), spec.trials)
            if problem is not None:
                problems.append(problem)
        if problems:
            self.stale += 1
            _STORE_STALE.inc()
            raise JobError(
                f"stale result store entry {path}: {'; '.join(problems)}; "
                f"delete it to recompute"
            )

    # ------------------------------------------------------------------
    # Insertion
    # ------------------------------------------------------------------

    def put(self, spec: RunSpec, result: PointResult) -> str:
        """Durably record ``result`` for ``spec``; returns the key.

        The write is atomic (temp file + ``os.replace`` in the same
        directory), so a crash mid-put leaves the previous state, not
        a torn entry.
        """
        if result.trials != spec.trials:
            raise JobError(
                f"result has {result.trials} trials but spec asked for "
                f"{spec.trials}; refusing to store a mismatched entry"
            )
        _require_integer_seed(spec)
        spec_json = spec_to_json(spec)
        key = _key_from_wire(spec_json)
        entry = {
            "format": STORE_FORMAT_VERSION,
            "key": key,
            "spec": spec_json,
            "provenance": {
                "version": __version__,
                "stream": RESULT_STREAM_VERSION,
            },
            "result": result_to_json(result),
        }
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        descriptor, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=f".{key[:8]}.", suffix=".tmp"
        )
        try:
            with os.fdopen(descriptor, "w") as handle:
                json.dump(entry, handle)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self.puts += 1
        _STORE_PUTS.inc()
        return key

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*/*.json"))

    def stats(self) -> dict[str, int]:
        """Traffic counters since construction."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "stale": self.stale,
        }
