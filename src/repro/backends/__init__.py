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
from repro.obs import clock_ns, histogram, sample_every

__all__ = [
    "PreparedProgram",
    "TimedProgram",
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


class TimedProgram(PreparedProgram):
    """A prepared program with sampled per-slot kernel timing.

    Wraps another :class:`PreparedProgram`, timing every ``every``-th
    ``apply_slot`` call into the ``backend.numpy.kernel_ns`` histogram
    (and counting all calls).  Only constructed when
    ``REPRO_OBS_SAMPLE`` is active — see :func:`prepare` — so the
    disabled hot loop carries no wrapper at all.  Timing reads only the
    clock: results stay bit-identical at any sampling rate.
    """

    def __init__(self, inner: PreparedProgram, every: int):
        super().__init__(inner.compiled)
        self.inner = inner
        self.every = every
        self.calls = 0
        self._hist = histogram("backend.numpy.kernel_ns")

    def apply_slot(self, state: BitplaneState, index: int) -> None:
        self.calls += 1
        if self.calls % self.every:
            self.inner.apply_slot(state, index)
            return
        started = clock_ns()
        self.inner.apply_slot(state, index)
        self._hist.observe(clock_ns() - started)


def prepare(compiled) -> PreparedProgram:
    """The executable form of ``compiled``.

    Cached in ``compiled.prepared``, so a sweep or bisection re-running
    one circuit prepares it once per process.  When kernel-timing
    sampling is on (``REPRO_OBS_SAMPLE``) the *returned* program is a
    fresh :class:`TimedProgram` over the cached one — the cache never
    holds a wrapper, so toggling sampling between runs cannot leak
    timing into a sampling-off caller.
    """
    prepared = compiled.prepared
    if prepared is None:
        prepared = compiled.prepared = PreparedProgram(compiled)
    every = sample_every()
    if every:
        return TimedProgram(prepared, every)
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
