"""The benchmark's names for the execution backend.

A compiled circuit executes itself: :meth:`repro.core.compiled.CompiledCircuit.apply_slot`
is the one bit-plane slot walk, which ``CompiledCircuit.run`` and the
noise layer's fault kernel both loop over.  This module keeps only the
names the benchmark imports — :func:`prepare`, :class:`NumpyBackend`
and :func:`get_backend` — and is deleted with the next benchmark
change.
"""

from __future__ import annotations

from repro.errors import ConfigError

__all__ = [
    "get_backend",
    "prepare",
]


def prepare(compiled):
    """The executable form of ``compiled``: the compiled circuit itself."""
    return compiled


class NumpyBackend:
    """:func:`prepare` behind the object :func:`get_backend` returns."""

    name = "numpy"
    prepare = staticmethod(prepare)


_BACKEND = NumpyBackend()


def get_backend(name: str | None = None) -> NumpyBackend:
    """The execution backend; ``name`` may only be ``None`` or ``"numpy"``."""
    if name not in (None, "numpy"):
        raise ConfigError(
            f"unknown backend {name!r}; the only backend is 'numpy'"
        )
    return _BACKEND
