"""Deterministic shard planning for spec batches.

A *shard* is the unit of fan-out and of a job's progress: a slice of
the submitted spec list small enough to re-run cheaply after a crash
and large enough to amortise one compiled program.  The planner's
obligations:

* **Determinism.**  The same spec list (same circuits, noise, trials,
  integer seeds) always plans the same shards with the same IDs.
* **Program affinity.**  Specs are grouped by the executor's own
  group key (circuit content and input vector) *before* chunking, so
  every shard's points share one compiled program and ride one
  stacked plane array inside the executor.  A worker that warms the
  compile cache once then runs a shard never recompiles.
* **Bit-identity.**  Shards never touch seeds: each point keeps the
  integer seed it was submitted with (the per-point seed-spawning
  discipline of :func:`repro.noise.seeds.spawn_seeds`), so the union
  of shard results is bit-identical to a single
  :meth:`~repro.runtime.executor.Executor.run` over the whole list, however the
  shards are scheduled.

Shard IDs hash the member points' store keys (from
:func:`repro.jobs.store.point_address`, which the caller computes)
plus their positions, so an ID is stable across resubmissions and
unique within a job even when two points coincide.
"""

from __future__ import annotations

import hashlib
from collections.abc import Sequence
from dataclasses import dataclass

from repro.errors import AnalysisError
from repro.runtime.executor import _group_key
from repro.runtime.serialization import canonical_json
from repro.runtime.spec import RunSpec

__all__ = ["DEFAULT_SHARD_SIZE", "Shard", "plan_shards"]

#: Points per shard when the caller does not choose.  Small enough
#: that a killed run loses at most this many points of work per shard
#: in flight (a shard's points reach the store when it finishes),
#: large enough that per-shard overhead (one manifest line, one pool
#: task, one run log) stays negligible.
DEFAULT_SHARD_SIZE = 64


@dataclass(frozen=True)
class Shard:
    """One planned shard: a stable ID plus spec-list positions."""

    shard_id: str
    indices: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.indices)


def _shard_id(keys: Sequence[str], indices: Sequence[int]) -> str:
    payload = {"points": list(keys), "indices": list(indices)}
    digest = hashlib.sha256(canonical_json(payload).encode()).hexdigest()
    return f"s{digest[:16]}"


def plan_shards(
    specs: Sequence[RunSpec],
    keys: Sequence[str],
    shard_size: int = DEFAULT_SHARD_SIZE,
) -> list[Shard]:
    """Split ``specs``, whose store keys are ``keys``, into
    deterministic, program-affine shards."""
    if shard_size < 1:
        raise AnalysisError(f"shard_size must be >= 1, got {shard_size}")
    groups: dict[tuple, list[int]] = {}
    for index, spec in enumerate(specs):
        groups.setdefault(_group_key(spec), []).append(index)
    shards: list[Shard] = []
    for indices in groups.values():
        for start in range(0, len(indices), shard_size):
            chunk = tuple(indices[start:start + shard_size])
            shards.append(
                Shard(_shard_id([keys[i] for i in chunk], chunk), chunk)
            )
    return shards
