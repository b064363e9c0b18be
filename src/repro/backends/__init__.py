"""Execution of compiled plane programs: the bit-plane slot walk.

The plane-program IR of :mod:`repro.core.compiled` runs one way: a
:class:`PreparedProgram` walks a compiled circuit's fused slots over a
:class:`~repro.core.bitplane.BitplaneState`.  Reset slots assign their
constant planes; gate slots evaluate each stacked program group
through :meth:`~repro.core.bitplane.BitplaneState.apply_program_stacked`.
The noise layer's fault kernel calls :meth:`PreparedProgram.apply_slot`
once per slot and scatters the slot's pre-drawn faults in between, so
execution never touches the RNG.

:func:`prepare` caches one program per compiled circuit (on
``compiled.prepared``).  ``repro.verify`` proves the slot walk's
transfer functions equal the circuit's gate tables (``RV300``), and
``tests/backends/conformance.py`` checks it against the reference
simulator.
"""

from __future__ import annotations

from repro.core.bitplane import BitplaneState
from repro.errors import ConfigError

__all__ = [
    "PreparedProgram",
    "get_backend",
    "prepare",
]


class PreparedProgram:
    """One compiled circuit made executable: its slot walk."""

    def __init__(self, compiled):
        self.compiled = compiled

    def apply_slot(self, state: BitplaneState, index: int) -> None:
        """Apply fused slot ``index`` of the schedule to ``state``."""
        slot = self.compiled.slots[index]
        if slot.is_reset:
            for value, wires in slot.resets:
                state.reset(wires, value)
        else:
            for group in slot.groups:
                state.apply_program_stacked(
                    group.program, group.wire_matrix, group.row_slices
                )

    def run(self, state: BitplaneState) -> BitplaneState:
        """Run the whole schedule noiselessly, mutating ``state``."""
        for index in range(len(self.compiled.slots)):
            self.apply_slot(state, index)
        return state


def prepare(compiled) -> PreparedProgram:
    """The executable form of ``compiled``.

    Cached in ``compiled.prepared``, so a sweep or bisection re-running
    one circuit prepares it once per process.  The executor times the
    slot walk with its ``executor.group.apply`` span.
    """
    prepared = compiled.prepared
    if prepared is None:
        prepared = compiled.prepared = PreparedProgram(compiled)
    return prepared


class NumpyBackend:
    """:func:`prepare` behind the object :func:`get_backend` returns.

    Kept only because the benchmark calls ``get_backend(...).prepare``;
    delete with the next benchmark change.
    """

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
