"""Unified declarative execution layer for Monte-Carlo experiments.

The public surface is small: describe each point as a
:class:`~repro.runtime.spec.RunSpec`, describe *how* to run as an
:class:`~repro.runtime.spec.ExecutionPolicy` (hydrated from the
``REPRO_*`` environment knobs exactly once via
:meth:`~repro.runtime.spec.ExecutionPolicy.from_env`), and hand
batches of specs to an :class:`~repro.runtime.executor.Executor`.
Points that share a compiled program are evaluated together in one
stacked bitplane array; independent groups can fan out to a process
pool.  See :mod:`repro.runtime.executor` for the execution plan and
its bit-identity guarantee, and :mod:`repro.runtime.serialization` for
the spec wire form.
"""

# Kept for the benchmark; delete with the next benchmark change.
from repro.runtime.spec import ExecutionPolicy
from repro.runtime.executor import Executor

__all__ = ["ExecutionPolicy", "Executor"]
