"""Declarative run specifications for the unified execution layer.

Every Monte-Carlo experiment in this repository has one shape —
"evaluate this circuit under this noise at these points with this
failure predicate".  This module gives that shape a value type:

* :class:`RunSpec` — one frozen point: circuit, input, observable,
  noise model, trial count, seed.  Specs are data; nothing runs until
  an :class:`~repro.runtime.executor.Executor` is handed a batch of
  them.
* :class:`ExecutionPolicy` — *how* specs run (worker pool, default
  trial budget), hydrated once from the environment by
  :meth:`ExecutionPolicy.from_env`.  This is the single home of every
  ``REPRO_*`` execution knob; nothing else in the library reads them
  mid-run.  No policy field can change a result, so a point's identity
  is its spec alone.  (The observability layer reads its own
  ``REPRO_TRACE`` once at import — see :mod:`repro.obs`.)
* :class:`PointResult` — one point's outcome: failure count, trial
  count, and fault statistics.
* Observables — the failure predicate half of a spec.  The one
  protocol is ``failure_plane(states) -> (n_words,) uint64``: bit
  ``t`` is set when trial ``t`` failed, and padding bits beyond the
  batch are unspecified.  An observable must be a per-trial function
  of the planes (a trial's bit depends on that trial's wires alone),
  which is what lets the executor compute one plane over several
  stacked points and count each point's window of it.  Callers read
  the plane and never write to it.  :class:`PredicateObservable`
  wraps a ``states -> bool array`` predicate;
  :class:`MajorityMismatchObservable` and
  :class:`WireMismatchObservable` compare packed planes through
  :func:`~repro.coding.repetition.mismatch_plane`;
  :class:`DecodeObservable` asks a decoder.  All are frozen and
  picklable, so specs can cross a process-pool boundary.

Specs are deliberately execution-free: the same ``RunSpec`` runs
serially or pooled, alone or stacked with other points into one plane
array — and, by construction, produces the same failure counts in
every mode.
"""

from __future__ import annotations

import os
from collections.abc import Callable
from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

from repro.coding.repetition import mismatch_plane
from repro.core.bitplane import BitplaneState, pack_bool
from repro.core.circuit import Circuit
from repro.errors import ConfigError, SimulationError
from repro.noise.model import NoiseModel

#: Default Monte-Carlo trial budget (the ``REPRO_TRIALS`` default).
DEFAULT_TRIALS = 100_000


# ----------------------------------------------------------------------
# Observables
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class PredicateObservable:
    """Failure plane of a ``states -> bool array`` predicate.

    The predicate reads the state through its unpacked observation
    API (``array``/``column``/``columns``/``majority_of``) and must be
    a per-trial function, like every observable.  For pooled execution
    it must be picklable (a module-level function or a
    :func:`functools.partial` of one).
    """

    predicate: Callable[[BitplaneState], np.ndarray]

    def failure_plane(self, states: BitplaneState) -> np.ndarray:
        failures = np.asarray(self.predicate(states), dtype=bool)
        if failures.shape != (states.trials,):
            raise SimulationError(
                f"predicate returned shape {failures.shape}, expected "
                f"({states.trials},)"
            )
        return pack_bool(failures)


@dataclass(frozen=True)
class MajorityMismatchObservable:
    """Trials whose majority vote over ``wires`` differs from ``expected``.

    One repetition codeword decoded in place: the paper's failure
    criterion for a single logical bit, computed on packed planes.
    """

    wires: tuple[int, ...]
    expected: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "wires", tuple(self.wires))

    def failure_plane(self, states: BitplaneState) -> np.ndarray:
        return mismatch_plane(
            [states.majority_plane(self.wires)], (self.expected,), 1
        )


@dataclass(frozen=True)
class WireMismatchObservable:
    """Trials in which any of ``wires`` differs from its expected bit."""

    wires: tuple[int, ...]
    expected_bits: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "wires", tuple(self.wires))
        object.__setattr__(self, "expected_bits", tuple(self.expected_bits))
        if not self.wires or len(self.wires) != len(self.expected_bits):
            raise SimulationError(
                f"need one expected bit per wire and at least one wire, "
                f"got {len(self.wires)} wires and "
                f"{len(self.expected_bits)} bits"
            )

    def failure_plane(self, states: BitplaneState) -> np.ndarray:
        return mismatch_plane(
            (states.planes[wire] for wire in self.wires),
            self.expected_bits,
            len(self.wires),
        )


@dataclass(frozen=True)
class DecodeObservable:
    """Trials whose decoded logical word differs from ``expected``.

    ``decoder`` is any object with ``decode_failure_plane(states,
    expected)`` returning a bit-plane batch's packed per-trial failure
    plane — e.g. :class:`~repro.coding.logical.LogicalProcessor` at
    any concatenation level, which compares recursive majority planes
    without unpacking a single trial.
    """

    decoder: object
    expected: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "expected", tuple(self.expected))

    def failure_plane(self, states: BitplaneState) -> np.ndarray:
        return self.decoder.decode_failure_plane(states, self.expected)


class DecodedMismatchObservable(DecodeObservable):
    """A :class:`DecodeObservable` under its own wire tag.

    It decodes exactly as its base class does.  It stays a separate
    class so that a serialisable spec built with it keeps its
    ``"decoded_mismatch"`` wire form and hence its point key: the
    level-1 spec pinned in ``tests/jobs/test_key_pins.py``.  Figure 3's
    level-2 points use it too, but a decoder above level 1 has no wire
    form, so those specs have no point key at all.
    """


# ----------------------------------------------------------------------
# RunSpec
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class RunSpec:
    """One declarative Monte-Carlo point.

    Attributes:
        circuit: the circuit to evolve noisily.
        input_bits: the broadcast input vector (one value per wire).
        observable: the failure predicate — an object with a
            ``failure_plane(states)`` method (see the module docstring).
        noise: the :class:`~repro.noise.model.NoiseModel` applied at
            this point.
        trials: Monte-Carlo batch size, an integer >= 1 (a NumPy
            integer is stored as a plain ``int``; a ``bool`` or a float
            is refused).
        seed: per-point RNG seed.  A non-negative integer (or
            ``None``) spawns a fresh ``numpy`` generator; a NumPy
            integer is stored as a plain ``int``, so it keys and
            serialises like one, and a ``bool`` or negative integer is
            refused.  An existing generator is used as-is (and is then
            consumed by the run).
    """

    circuit: Circuit
    input_bits: tuple[int, ...]
    observable: object
    noise: NoiseModel
    trials: int
    seed: int | np.random.Generator | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "input_bits", tuple(self.input_bits))
        if isinstance(self.seed, np.integer):
            object.__setattr__(self, "seed", int(self.seed))
        if isinstance(self.trials, np.integer):
            object.__setattr__(self, "trials", int(self.trials))
        if isinstance(self.seed, bool) or (isinstance(self.seed, int) and self.seed < 0):
            raise SimulationError(
                f"seed must be a non-negative int, None or a Generator, "
                f"got {type(self.seed).__name__} {self.seed!r}"
            )
        if not isinstance(self.trials, int) or isinstance(self.trials, bool):
            raise SimulationError(
                f"trials must be an int, got {type(self.trials).__name__} "
                f"{self.trials!r}"
            )
        if len(self.input_bits) != self.circuit.n_wires:
            raise SimulationError(
                f"input has {len(self.input_bits)} bits but circuit has "
                f"{self.circuit.n_wires} wires"
            )
        if self.trials < 1:
            raise SimulationError(f"trials must be >= 1, got {self.trials}")
        if not callable(getattr(self.observable, "failure_plane", None)):
            raise SimulationError(
                f"observable must expose failure_plane(states), got "
                f"{type(self.observable).__name__}; wrap a states -> "
                f"bool-array predicate in PredicateObservable"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        label = self.circuit.name or f"{self.circuit.n_wires}-wire circuit"
        return (
            f"RunSpec({label!r}, g={self.noise.gate_error:g}, "
            f"trials={self.trials}, seed={self.seed!r})"
        )


# ----------------------------------------------------------------------
# ExecutionPolicy
# ----------------------------------------------------------------------


def _parse_parallel(value: str) -> int | bool:
    if value.strip().lower() == "max":
        return True
    return int(value)


@dataclass(frozen=True)
class ExecutionPolicy:
    """How specs execute — the single home of the ``REPRO_*`` knobs.

    Attributes:
        parallel: process-pool width for independent work —
            ``None``/0/1 in-process, ``N`` workers, ``True`` one per
            CPU (``REPRO_PARALLEL``; ``max`` means ``True``; negative
            widths are rejected).  The
            executor pools only *across* compiled groups; points
            sharing a program batch into one plane array instead.
        trials: default Monte-Carlo budget for callers that take their
            trial count from the policy (``REPRO_TRIALS``).

    A negative ``parallel`` and a ``trials`` below 1 raise
    :class:`~repro.errors.ConfigError` (a ``SimulationError``
    subclass): a typo in a knob must fail loudly, not silently run the
    default.
    """

    #: The only Monte-Carlo engine and execution backend, and circuits
    #: always compile fused and cached.  Not fields, so they cannot be
    #: set; kept only because the benchmark reads them — delete with the
    #: next benchmark change.
    engine: ClassVar[str] = "bitplane"
    backend: ClassVar[str] = "numpy"
    fuse: ClassVar[bool] = True
    compile_cache: ClassVar[bool] = True

    parallel: int | bool | None = None
    trials: int = DEFAULT_TRIALS

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if self.parallel is not None and self.parallel < 0:
            raise ConfigError(f"parallel must be >= 0, got {self.parallel}")

    @classmethod
    def from_env(cls, **defaults) -> "ExecutionPolicy":
        """The policy described by the ``REPRO_*`` environment knobs.

        ``defaults`` override the dataclass defaults for knobs the
        environment leaves unset, so callers can say "100k trials
        unless ``REPRO_TRIALS`` is exported".  This classmethod is the
        only place the execution knobs are read; hydrate once and pass
        the policy around.  Invalid values raise
        :class:`~repro.errors.ConfigError` naming the offending
        variable — never a silent fall-back to the default.
        """
        policy = cls(**defaults)
        env = os.environ
        updates: dict = {}
        if env.get("REPRO_PARALLEL") is not None:
            try:
                updates["parallel"] = _parse_parallel(env["REPRO_PARALLEL"])
            except ValueError as exc:
                raise ConfigError(
                    f"REPRO_PARALLEL={env['REPRO_PARALLEL']!r} is not an "
                    f"integer or 'max'"
                ) from exc
            if updates["parallel"] < 0:
                raise ConfigError(
                    f"REPRO_PARALLEL={env['REPRO_PARALLEL']!r} is negative; "
                    f"use 0 or 1 for in-process, N >= 2 or 'max' for a pool"
                )
        if "REPRO_TRIALS" in env:
            try:
                updates["trials"] = int(env["REPRO_TRIALS"])
            except ValueError as exc:
                raise ConfigError(
                    f"REPRO_TRIALS={env['REPRO_TRIALS']!r} is not an integer"
                ) from exc
            if updates["trials"] < 1:
                raise ConfigError(
                    f"REPRO_TRIALS={env['REPRO_TRIALS']!r} must be >= 1"
                )
        return replace(policy, **updates) if updates else policy


# ----------------------------------------------------------------------
# PointResult
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class PointResult:
    """Outcome of one :class:`RunSpec`.

    ``failures`` counts trials the spec's observable flagged;
    ``faulted_trials`` counts trials that experienced at least one
    injected fault (the raw noise exposure, independent of the
    observable).
    """

    failures: int
    trials: int
    faulted_trials: int

    @property
    def failure_fraction(self) -> float:
        """``failures / trials``."""
        return self.failures / self.trials
