"""Unified declarative execution layer for Monte-Carlo experiments.

The public surface is small: describe each point as a
:class:`RunSpec`, describe *how* to run as an :class:`ExecutionPolicy`
(hydrated from the ``REPRO_*`` environment knobs exactly once via
:meth:`ExecutionPolicy.from_env`), and hand batches of specs to an
:class:`Executor`.  Points that share a compiled program are evaluated
together in one stacked bitplane array; independent groups can fan out
to a process pool.  See :mod:`repro.runtime.executor` for the
execution plan and its bit-identity guarantee.

The wire form of a spec (``spec_to_json``, ``spec_from_json``,
``SPEC_FORMAT_VERSION``) lives in :mod:`repro.runtime.serialization`;
only the jobs layer needs it, so it is not re-exported here.
"""

from repro.runtime.spec import (
    DEFAULT_TRIALS,
    DecodeObservable,
    DecodedMismatchObservable,
    ExecutionPolicy,
    MajorityMismatchObservable,
    PointResult,
    PredicateObservable,
    RunSpec,
    WireMismatchObservable,
)
from repro.runtime.executor import Executor

__all__ = [
    "DEFAULT_TRIALS",
    "DecodeObservable",
    "DecodedMismatchObservable",
    "ExecutionPolicy",
    "Executor",
    "MajorityMismatchObservable",
    "PointResult",
    "PredicateObservable",
    "RunSpec",
    "WireMismatchObservable",
]
