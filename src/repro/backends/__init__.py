"""Pluggable execution backends for compiled plane programs.

The plane-program IR of :mod:`repro.core.compiled` is a hard seam: a
*backend* implements the :class:`~repro.backends.base.PlaneBackend`
contract (allocate planes, prepare a compiled circuit into a slot-wise
executable) and the noise layer's fault kernel runs against whichever
one the registry hands it.

Two backends ship in-tree:

* ``numpy`` — the original :class:`~repro.core.bitplane.BitplaneState`
  slot loop, extracted verbatim; the reference every other backend is
  conformance- and digest-tested against.
* ``fused`` — each compiled program becomes a prebuilt chain of
  generated in-place kernels with shared scratch (optionally
  numba-JIT'd when importable); ~2x faster on the 100k-trial recovery
  workload, bit-identical by construction.

Selection: ``REPRO_BACKEND`` (default ``numpy``), wired through
:meth:`~repro.runtime.spec.ExecutionPolicy.from_env`; unknown names
raise :class:`~repro.errors.ConfigError`.  Every registered backend
must pass the parametrized conformance suite in
``tests/backends/conformance.py``.
"""

from __future__ import annotations

from repro.backends.base import PlaneBackend, PreparedProgram, TimedProgram
from repro.backends.fused import FusedBackend
from repro.backends.numpy_backend import NumpyBackend
from repro.backends.registry import (
    DEFAULT_BACKEND,
    available_backends,
    backend_from_env,
    get_backend,
    register_backend,
)

register_backend("numpy", NumpyBackend)
register_backend("fused", FusedBackend)

__all__ = [
    "DEFAULT_BACKEND",
    "FusedBackend",
    "NumpyBackend",
    "PlaneBackend",
    "PreparedProgram",
    "TimedProgram",
    "available_backends",
    "backend_from_env",
    "get_backend",
    "register_backend",
]
