"""Unified declarative execution layer for Monte-Carlo experiments.

The public surface is small: describe each point as a
:class:`RunSpec`, describe *how* to run as an :class:`ExecutionPolicy`
(hydrated from the ``REPRO_*`` environment knobs exactly once via
:meth:`ExecutionPolicy.from_env`), and hand batches of specs to an
:class:`Executor`.  Points that share a compiled program are evaluated
together in one stacked bitplane array; independent groups can fan out
to a process pool.  See :mod:`repro.runtime.executor` for the
execution plan and its bit-identity guarantee.
"""

from repro.runtime.spec import (
    DEFAULT_TRIALS,
    DecodeObservable,
    DecodedMismatchObservable,
    ExecutionPolicy,
    PointResult,
    PredicateObservable,
    RunSpec,
    as_observable,
)
from repro.runtime.executor import Executor
from repro.runtime.serialization import (
    SPEC_FORMAT_VERSION,
    spec_from_json,
    spec_to_json,
)

__all__ = [
    "DEFAULT_TRIALS",
    "DecodeObservable",
    "DecodedMismatchObservable",
    "ExecutionPolicy",
    "Executor",
    "PointResult",
    "PredicateObservable",
    "RunSpec",
    "SPEC_FORMAT_VERSION",
    "as_observable",
    "spec_from_json",
    "spec_to_json",
]
