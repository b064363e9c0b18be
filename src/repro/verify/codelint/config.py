"""The enforced-by-tooling half of this repository's conventions.

Everything here was previously prose — docstrings saying "the noise
layer owns all randomness", comments saying "deferred jobs import
keeps layering acyclic" — and is now data consumed by the lint passes
in this package.  Changing a rule means changing this file, in review,
not quietly drifting.
"""

from __future__ import annotations

#: The import-layering DAG over the top-level packages/modules of
#: ``repro``.  A module may import (at module level) only packages on a
#: strictly lower layer, or its own package; upward imports must be
#: deferred (inside a function) *and* listed in
#: :data:`DEFERRED_ALLOWLIST`.  ``repro/__init__.py`` is the root
#: re-export surface and may import anything.
LAYERS: dict[str, int] = {
    "errors": 0,
    "_version": 0,
    "obs": 1,
    "core": 2,
    "coding": 3,
    "local": 3,
    "analysis": 3,
    "backends": 4,
    "noise": 5,
    "runtime": 6,
    "baselines": 7,
    "synth": 7,
    "harness": 8,
    "jobs": 9,
    "report": 10,
    "verify": 10,
}

#: Documented deferred upward imports: ``(file, target package)``.
#: Each would be a function-local import whose comment in the source
#: explains why the edge must exist (cycle-breaking, optional layers).
#: Empty: no module imports upward.  The lint holds this list closed —
#: a new upward import fails ``RL201`` until it is argued into this
#: allowlist in review.
DEFERRED_ALLOWLIST: frozenset[tuple[str, str]] = frozenset()

#: Module prefixes whose *calls* are forbidden outside the noise layer:
#: randomness and wall-clock reads are result-affecting unless they
#: flow through the seeded noise layer.
IMPURE_CALL_PREFIXES: tuple[str, ...] = (
    "numpy.random",
    "random",
    "time",
    "datetime",
)

#: Directory prefix whose files own randomness: every RNG construction
#: and seed derivation lives here (``repro.noise.seeds`` is the only
#: place ``numpy.random`` is constructed from a bare seed).
RNG_OWNING_PREFIX = "src/repro/noise/"

#: Files outside the noise layer allowed specific impure calls, with
#: the documented reason.  Empty since the observability layer became
#: the one clock front door (``repro.report`` now times through
#: ``repro.obs.stopwatch``); the mechanism stays so a future exception
#: must still be argued into this dict in review.
RNG_ALLOWED_FILES: dict[str, str] = {}

#: Directory prefix that owns the clock: ``repro.obs`` is the only
#: place in ``src/repro`` allowed to call ``time.*`` (``RL500``), and
#: its clock reads are exempt from ``RL100`` (it still may not touch
#: ``numpy.random``/``random`` — observation never feeds the RNG).
TIMING_OWNING_PREFIX = "src/repro/obs/"

#: Functions that compute content keys, hashes, or canonical wire
#: forms.  Inside these, iteration order must be deterministic: no set
#: iteration, no unsorted ``.items()``/``.keys()``/``.values()``, no
#: ``json.dumps`` without ``sort_keys=True``.
KEY_FUNCTIONS: frozenset[str] = frozenset(
    {
        "content_key",
        "point_address",
        "_key_from_wire",
        "_shard_id",
        "spec_to_json",
        "canonical_json",
    }
)

#: Builtin exceptions that must never be raised bare from ``src/repro``
#: — the typed :mod:`repro.errors` hierarchy is the public contract.
#: ``NotImplementedError`` is excluded: abstract-method bodies raise it
#: by convention.
FORBIDDEN_RAISES: frozenset[str] = frozenset(
    {
        "ArithmeticError",
        "AssertionError",
        "BaseException",
        "Exception",
        "IndexError",
        "IOError",
        "KeyError",
        "LookupError",
        "OSError",
        "RuntimeError",
        "StopIteration",
        "TypeError",
        "ValueError",
        "ZeroDivisionError",
    }
)
