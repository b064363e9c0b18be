"""The backend contract: what it takes to execute plane programs.

The compiled schedule of :mod:`repro.core.compiled` is engine-agnostic
data — tagged plane expressions plus wire matrices.  A *backend* is one
way of executing that data against a plane store.  This module pins the
contract down as an abstract base class so the noise layer and the
stacked executor can be pointed at any implementation:

* :class:`PlaneBackend` — allocate plane states and prepare a compiled
  circuit into an executable :class:`PreparedProgram`.
* :class:`PreparedProgram` — the per-``CompiledCircuit`` executable: a
  slot-indexed ``apply_slot`` (the noisy engines interleave fault
  injection between slots) plus a noiseless ``run`` over the whole
  schedule.

Both registered backends (:mod:`repro.backends.numpy_backend` and
:mod:`repro.backends.fused`) operate on the shared
:class:`~repro.core.bitplane.BitplaneState` uint64 plane store, so
allocation defaults to the state's constructors, and fault scatter and
decode work on the state directly; a backend with its own plane store
would override allocation alongside :meth:`PlaneBackend.prepare`.

Conformance is behavioural, not structural: every registered backend
must pass the parametrized suite in ``tests/backends/conformance.py``
(small-circuit equivalence against the reference simulator, stacked
vs solo bit-identity, fault-draw bit-identity against the ``numpy``
backend, decode correctness).  Backends never touch the RNG — faults
are drawn and scattered by the noise layer's fault kernel — so
swapping backends can never change a published number.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.bitplane import BitplaneState
from repro.obs import clock_ns, histogram, sample_every

__all__ = ["PlaneBackend", "PreparedProgram", "TimedProgram"]


class PreparedProgram:
    """One compiled circuit made executable by one backend.

    Preparation happens once per (compiled circuit, backend) pair —
    backends cache the result on ``compiled.prepared`` — so anything
    expensive (index tables, generated kernels, scratch planning)
    belongs in the constructor, never in :meth:`apply_slot`.
    """

    def __init__(self, compiled):
        self.compiled = compiled

    def apply_slot(self, state: BitplaneState, index: int) -> None:
        """Apply fused slot ``index`` of the schedule to ``state``.

        Covers both slot kinds: reset slots assign their constant
        planes, gate slots evaluate every stacked program group.  The
        noisy engines call this once per slot and inject the slot's
        faults in between — the contract is that the state after
        ``apply_slot`` is bit-identical across backends.
        """
        raise NotImplementedError

    def run(self, state: BitplaneState) -> BitplaneState:
        """Run the whole schedule noiselessly, mutating ``state``."""
        for index in range(len(self.compiled.slots)):
            self.apply_slot(state, index)
        return state


class TimedProgram(PreparedProgram):
    """A prepared program with sampled per-slot kernel timing.

    Wraps another :class:`PreparedProgram`, timing every ``every``-th
    ``apply_slot`` call into the ``backend.<name>.kernel_ns``
    histogram (and counting all calls).  Only constructed when
    ``REPRO_OBS_SAMPLE`` is active — see :meth:`PlaneBackend.prepare` —
    so the disabled hot loop carries no wrapper at all.  Timing reads
    only the clock: results stay bit-identical at any sampling rate.
    """

    def __init__(self, inner: PreparedProgram, backend_name: str, every: int):
        super().__init__(inner.compiled)
        self.inner = inner
        self.every = every
        self.calls = 0
        self._hist = histogram(f"backend.{backend_name}.kernel_ns")

    def apply_slot(self, state: BitplaneState, index: int) -> None:
        self.calls += 1
        if self.calls % self.every:
            self.inner.apply_slot(state, index)
            return
        started = clock_ns()
        self.inner.apply_slot(state, index)
        self._hist.observe(clock_ns() - started)


class PlaneBackend:
    """Abstract executor of compiled plane programs.

    Subclasses set :attr:`name` (the registry key) and implement
    :meth:`_prepare`; allocation defaults to the
    :class:`BitplaneState` constructors shared by the in-tree backends.
    """

    #: Registry key; also what ``PointResult``-style reporting shows.
    name: str = ""

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------

    def broadcast(self, input_bits: Sequence[int], trials: int) -> BitplaneState:
        """All trials start from the same bit vector."""
        return BitplaneState.broadcast(input_bits, trials)

    def zeros(self, n_wires: int, trials: int) -> BitplaneState:
        """All trials start from the all-zero state."""
        return BitplaneState.zeros(n_wires, trials)

    def from_rows(self, rows: Sequence[Sequence[int]]) -> BitplaneState:
        """One trial per row of explicit bit vectors."""
        return BitplaneState.from_rows(rows)

    # ------------------------------------------------------------------
    # Program preparation
    # ------------------------------------------------------------------

    def prepare_key(self) -> str:
        """The ``compiled.prepared`` cache key for this backend.

        Defaults to :attr:`name`; backends whose preparation depends on
        configuration (the fused backend's JIT mode) extend the key so
        differently configured instances never share an entry.
        """
        return self.name

    def prepare(self, compiled) -> PreparedProgram:
        """The executable form of ``compiled`` under this backend.

        Cached in ``compiled.prepared`` keyed on :meth:`prepare_key`,
        so a sweep or bisection re-running one circuit prepares it
        exactly once per process regardless of how many runs consume
        it.  When kernel-timing sampling is on (``REPRO_OBS_SAMPLE``)
        the *returned* program is a fresh :class:`TimedProgram` over
        the cached one — the cache itself never holds a wrapper, so
        toggling sampling between runs cannot leak timing into a
        sampling-off caller.
        """
        key = self.prepare_key()
        prepared = compiled.prepared.get(key)
        if prepared is None:
            prepared = self._prepare(compiled)
            compiled.prepared[key] = prepared
        every = sample_every()
        if every:
            return TimedProgram(prepared, self.name, every)
        return prepared

    def _prepare(self, compiled) -> PreparedProgram:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"
