"""The content-keyed result store: durable Monte-Carlo point results.

Every Monte-Carlo point in this repository is fully determined by its
:class:`~repro.runtime.spec.RunSpec` (circuit content, input, observable,
noise, trials, integer seed).  No field of the
:class:`~repro.runtime.spec.ExecutionPolicy` can change a number — pool
width and batching are execution details — so the policy is
deliberately **not** part of the key, nor recorded with the entry.

A point's *address* is the pair ``(key, wire)`` that
:func:`point_address` computes once: ``wire`` is the spec's versioned
JSON wire form (:mod:`repro.runtime.serialization`) and ``key`` hashes
it with the format and stream versions.  :class:`ResultStore` is a
directory of one small JSON file per key, and its
:meth:`~ResultStore.get`/:meth:`~ResultStore.put` take addresses, so
they neither serialise nor hash.  Entries hold the wire form, in
which each circuit is a ``{"circuit_digest": d}`` reference: the
digest pins the circuit's wire bytes, so an entry needs no copy of
them, and a 10-point sweep sharing one circuit writes none.  (A job
directory keeps each circuit once, for the specs its manifest must
rebuild.)  Properties the job layer leans on:

* **One result record.**  A sweep job (:mod:`repro.jobs.runner`)
  keeps no other copy of its results: a shard is done when each of its
  points has an entry here, and ``collect`` reads every point back
  through :meth:`ResultStore.get`.
* **Cache hits on repeat queries.**  Re-submitting a sweep whose
  points are already stored costs file reads, not simulation.
* **Crash safety.**  Writes go to a temp file and ``os.replace`` into
  place, so a killed run leaves complete entries or none — never a
  half-written one that resume would trust.
* **Stale/corrupt detection, never silent serving.**  Entries embed
  their own key, format version, and spec wire form; a
  lookup re-verifies all three and raises
  :class:`~repro.errors.JobError` on any mismatch.  An
  entry produced under a different RNG stream or store format version
  simply has a different key and is a clean miss.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path

from repro import __version__
from repro.errors import JobError
from repro.obs.metrics import counter
from repro.runtime.serialization import canonical_json, spec_to_json
from repro.runtime.spec import PointResult, RunSpec

__all__ = [
    "RESULT_STREAM_VERSION",
    "STORE_FORMAT_VERSION",
    "ResultStore",
    "point_address",
    "write_json_atomic",
]

#: Version of a store entry's on-disk shape.  Bump on layout changes.
#: Version 2: keys, provenance and results no longer carry an engine.
#: Version 3: keys no longer carry a fusion flag (circuits always
#: compile fused), and provenance no longer records one.  Version 4:
#: entries hold the spec with its circuits as digest references.
STORE_FORMAT_VERSION = 4

#: Version of the Monte-Carlo RNG stream contract.  The frozen digests in
#: ``tests/noise/test_engine_determinism.py`` pin the streams; if they
#: are ever deliberately re-recorded, bump this so every pre-change
#: store entry stops matching instead of serving results from a stream
#: that no longer exists.  Version 2: faults are drawn through the
#: stacked kernel instead of one draw per op (this moved only the
#: since-retired unfused stream; the fused stream is unchanged).
RESULT_STREAM_VERSION = 2


def _key_from_wire(spec_json: dict) -> str:
    # Circuits in the wire form are already their content digests, so
    # keying a 10-point sweep never re-serializes the shared circuit.
    payload = {
        "format": STORE_FORMAT_VERSION,
        "stream": RESULT_STREAM_VERSION,
        "spec": spec_json,
    }
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


def write_json_atomic(path: Path, payload) -> None:
    """Write ``payload`` as JSON to ``path`` atomically.

    The text is encoded in one ``json.dumps`` call (CPython's C
    encoder; ``json.dump`` to a handle runs the pure-Python one) into
    a temp file in the same directory, then ``os.replace``d into
    place, so a crash leaves the old file or the new one, never a torn
    one.  Manifests, store entries, circuit blobs and shard run logs
    all go through here.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    descriptor, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.stem[:12]}.", suffix=".tmp"
    )
    try:
        with os.fdopen(descriptor, "w") as handle:
            handle.write(json.dumps(payload))
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


_RESULT_FIELDS = ("failures", "trials", "faulted_trials")


def point_address(
    spec: RunSpec, circuits: dict[str, dict] | None = None
) -> tuple[str, dict] | None:
    """The point's store address ``(key, wire)``, or ``None``.

    ``wire`` is the spec's :func:`~repro.runtime.serialization.spec_to_json`
    form (recording its circuits in ``circuits``), and ``key`` hashes
    it with the stream/format versions: everything that can change a
    failure count, and nothing that cannot.  Only an integer seed names
    a reproducible stream, so any other seed has no address; this is
    the one place that decides whether a point may be stored.
    """
    if type(spec.seed) is not int:
        return None
    wire = spec_to_json(spec, circuits)
    return _key_from_wire(wire), wire


def _result_problem(block: object, trials: int) -> str | None:
    """What is wrong with a stored result block, or ``None`` if sane.

    The block must be a dict of integer ``failures``/``trials``/
    ``faulted_trials`` with ``trials`` equal to the spec's and both
    counts within ``[0, trials]``.
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


# Store traffic, counted process-wide across every store (repro.obs).
_STORE_HITS = counter("jobs.store.hit")
_STORE_MISSES = counter("jobs.store.miss")
_STORE_PUTS = counter("jobs.store.put")
_STORE_STALE = counter("jobs.store.stale")


class ResultStore:
    """A directory of JSON point results keyed by :func:`point_address`.

    Entries live two levels deep (``<root>/<key[:2]>/<key>.json``) so
    a million-point store never puts a million files in one directory.
    Its traffic is counted by the ``jobs.store.hit``/``miss``/``put``/
    ``stale`` counters of :mod:`repro.obs`, which is how the tests
    assert "served entirely from the store, zero simulation".
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def __contains__(self, key: str) -> bool:
        """Whether an entry exists under ``key`` (a stat, not a read)."""
        return self._path(key).exists()

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def get(self, address: tuple[str, dict]) -> PointResult | None:
        """The stored result at ``address``, or ``None``.

        A present-but-wrong entry — unreadable JSON, foreign format
        version, key not matching the content, spec wire form not
        matching the request, insane counts — raises
        :class:`~repro.errors.JobError` naming the file.  Detection is
        the contract: a stale entry must never be silently served *or*
        silently recomputed over.
        """
        key, wire = address
        path = self._path(key)
        if not path.exists():
            _STORE_MISSES.inc()
            return None
        try:
            entry = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            _STORE_STALE.inc()
            raise JobError(
                f"result store entry {path} is unreadable: {exc}; delete "
                f"it to recompute"
            ) from exc
        self._verify(entry, key, wire, path)
        _STORE_HITS.inc()
        block = entry["result"]
        return PointResult(**{name: block[name] for name in _RESULT_FIELDS})

    def _verify(self, entry: object, key: str, wire: dict, path: Path) -> None:
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
            if entry.get("spec") != wire:
                problems.append("stored spec differs from the requested spec")
            problem = _result_problem(entry.get("result"), wire["trials"])
            if problem is not None:
                problems.append(problem)
        if problems:
            _STORE_STALE.inc()
            raise JobError(
                f"stale result store entry {path}: {'; '.join(problems)}; "
                f"delete it to recompute"
            )

    # ------------------------------------------------------------------
    # Insertion
    # ------------------------------------------------------------------

    def put(self, address: tuple[str, dict], result: PointResult) -> None:
        """Durably record ``result`` at ``address``.

        The write is atomic (temp file + ``os.replace`` in the same
        directory), so a crash mid-put leaves the previous state, not
        a torn entry.
        """
        key, wire = address
        if result.trials != wire["trials"]:
            raise JobError(
                f"result has {result.trials} trials but spec asked for "
                f"{wire['trials']}; refusing to store a mismatched entry"
            )
        entry = {
            "format": STORE_FORMAT_VERSION,
            "key": key,
            "spec": wire,
            "provenance": {
                "version": __version__,
                "stream": RESULT_STREAM_VERSION,
            },
            "result": {name: getattr(result, name) for name in _RESULT_FIELDS},
        }
        write_json_atomic(self._path(key), entry)
        _STORE_PUTS.inc()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*/*.json"))
