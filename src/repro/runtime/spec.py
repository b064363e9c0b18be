"""Declarative run specifications for the unified execution layer.

Every Monte-Carlo experiment in this repository has one shape —
"evaluate this circuit under this noise at these points with this
failure predicate".  This module gives that shape a value type:

* :class:`RunSpec` — one frozen point: circuit, input, observable,
  noise model, trial count, seed.  Specs are data; nothing runs until
  an :class:`~repro.runtime.executor.Executor` is handed a batch of
  them.
* :class:`ExecutionPolicy` — *how* specs run (worker pool, default
  trial budget, trace sink), hydrated once from the
  environment by :meth:`ExecutionPolicy.from_env`.  This is the single
  home of every ``REPRO_*`` execution knob; nothing else in the library
  reads them mid-run.  No policy field can change a result, so a
  point's identity is its spec alone.  (The observability layer
  additionally reads its own ``REPRO_TRACE``/``REPRO_OBS_SAMPLE`` once
  at import so bare CLI runs trace too — see :mod:`repro.obs`.)
* :class:`PointResult` — one point's outcome: failure count, trial
  count, and fault statistics.
* Observables — the failure predicate half of a spec.  Anything with a
  ``count_failures(states) -> int`` method qualifies;
  :func:`as_observable` wraps a plain ``states -> bool array``
  predicate.  The provided frozen observables are picklable, so specs
  can cross a process-pool boundary.

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

from repro.core.bitplane import BitplaneState, count_trial_ones, words_for
from repro.core.circuit import Circuit
from repro.core.simulator import BatchedState
from repro.errors import ConfigError, SimulationError
from repro.noise.model import NoiseModel

States = BatchedState | BitplaneState

#: Default Monte-Carlo trial budget (the ``REPRO_TRIALS`` default).
DEFAULT_TRIALS = 100_000


# ----------------------------------------------------------------------
# Observables
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class PredicateObservable:
    """Counts failures through a ``states -> bool array`` predicate.

    The predicate must stick to the state-agnostic observation API
    (``array``/``columns``/``majority_of``), which the bit-plane and
    uint8 reference states share.  For pooled execution the predicate
    must be picklable (a module-level function or a
    :func:`functools.partial` of one).
    """

    predicate: Callable[[States], np.ndarray]

    def count_failures(self, states: States) -> int:
        failures = np.asarray(self.predicate(states), dtype=bool)
        if failures.shape != (states.trials,):
            raise SimulationError(
                f"is_failure returned shape {failures.shape}, expected "
                f"({states.trials},)"
            )
        return int(failures.sum())


@dataclass(frozen=True)
class DecodeObservable:
    """Counts trials whose decoded logical word differs from ``expected``.

    ``decoder`` is any object with ``count_decode_failures(states,
    expected)`` — e.g. :class:`~repro.coding.logical.LogicalProcessor`,
    whose bit-plane path compares majority planes without unpacking a
    single trial (the threshold pipeline's hot decode).  Decoders that
    also expose ``decode_failure_plane(states, expected)`` additionally
    get the *stacked* decode: one failure plane computed across a whole
    multi-point plane array, counted per point window.
    """

    decoder: object
    expected: tuple[int, ...]

    def count_failures(self, states: States) -> int:
        return int(self.decoder.count_decode_failures(states, self.expected))

    def count_failures_stacked(
        self, states: BitplaneState, windows
    ) -> list[int]:
        """Per-window failure counts of a stacked multi-point array.

        ``windows`` is a sequence of ``(word_offset, trials)`` pairs
        describing each point's word-aligned window of ``states``.  The
        decoder's failure plane is computed ONCE over the full array
        (plane operations are wordwise, so each window's slice equals
        the plane a solo decode of that window would produce) and then
        counted per window with that window's own padding mask —
        bit-identical to calling :meth:`count_failures` on each window
        view, at one decode pass instead of one per point.  Decoders
        without ``decode_failure_plane`` fall back to exactly that
        per-window path.
        """
        decode_plane = getattr(self.decoder, "decode_failure_plane", None)
        if decode_plane is None:
            counts = []
            for offset, trials in windows:
                window = BitplaneState(
                    states.planes[:, offset:offset + words_for(trials)],
                    trials,
                )
                counts.append(self.count_failures(window))
            return counts
        failed = decode_plane(states, self.expected)
        return [
            count_trial_ones(failed[offset:offset + words_for(trials)], trials)
            for offset, trials in windows
        ]


@dataclass(frozen=True)
class DecodedMismatchObservable:
    """Counts rows of ``decoder.decode_batch`` that mismatch ``expected``.

    For decoders that expose only a batch decode (e.g.
    :class:`~repro.coding.concatenation.ConcatenatedComputation`):
    decodes the whole batch to a ``(trials, n_logical)`` array and
    counts rows differing from ``expected`` anywhere.
    """

    decoder: object
    expected: tuple[int, ...]

    def count_failures(self, states: States) -> int:
        decoded = self.decoder.decode_batch(states)
        expected = np.asarray(self.expected, dtype=np.uint8)
        return int((decoded != expected).any(axis=1).sum())


def as_observable(observable):
    """Normalise a spec's observable to the ``count_failures`` protocol.

    Objects already exposing ``count_failures`` pass through; a plain
    callable is wrapped as a :class:`PredicateObservable`.
    """
    if hasattr(observable, "count_failures"):
        return observable
    if callable(observable):
        return PredicateObservable(observable)
    raise SimulationError(
        f"observable must expose count_failures(states) or be a "
        f"states -> bool-array callable, got {type(observable).__name__}"
    )


# ----------------------------------------------------------------------
# RunSpec
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class RunSpec:
    """One declarative Monte-Carlo point.

    Attributes:
        circuit: the circuit to evolve noisily.
        input_bits: the broadcast input vector (one value per wire).
        observable: the failure predicate — anything accepted by
            :func:`as_observable`.
        noise: the :class:`~repro.noise.model.NoiseModel` applied at
            this point.
        trials: Monte-Carlo batch size (must be >= 1).
        seed: per-point RNG seed.  An integer (or ``None``) spawns a
            fresh ``numpy`` generator; an existing generator is used
            as-is (and is then consumed by the run).
    """

    circuit: Circuit
    input_bits: tuple[int, ...]
    observable: object
    noise: NoiseModel
    trials: int
    seed: int | np.random.Generator | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "input_bits", tuple(self.input_bits))
        if len(self.input_bits) != self.circuit.n_wires:
            raise SimulationError(
                f"input has {len(self.input_bits)} bits but circuit has "
                f"{self.circuit.n_wires} wires"
            )
        if self.trials < 1:
            raise SimulationError(f"trials must be >= 1, got {self.trials}")
        as_observable(self.observable)  # validate the protocol up front

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        label = self.circuit.name or f"{self.circuit.n_wires}-wire circuit"
        return (
            f"RunSpec({label!r}, g={self.noise.gate_error:g}, "
            f"trials={self.trials}, seed={self.seed!r})"
        )

    def to_json(self) -> dict:
        """The spec's versioned JSON wire form.

        Delegates to :func:`repro.runtime.serialization.spec_to_json`;
        raises :class:`~repro.errors.SerializationError` for specs with
        no faithful wire form (generator seeds, unregistered
        observables).  The import is deferred because the serialization
        module builds on this one.
        """
        from repro.runtime.serialization import spec_to_json

        return spec_to_json(self)

    @staticmethod
    def from_json(data: dict) -> "RunSpec":
        """Rebuild a spec serialised by :meth:`to_json`."""
        from repro.runtime.serialization import spec_from_json

        return spec_from_json(data)


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
        trace: span-trace sink — a file path, ``"stderr"`` or
            ``"stdout"`` — or ``None`` for no tracing
            (``REPRO_TRACE``; see :mod:`repro.obs`).  Tracing is
            observational only and can never change a result; pooled
            workers inherit the sink through the pickled policy and
            flush ``<path>.<pid>``.

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
    trace: str | None = None

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
        if "REPRO_TRACE" in env:
            updates["trace"] = env["REPRO_TRACE"] or None
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

    @property
    def fault_fraction(self) -> float:
        """Fraction of trials with at least one injected fault."""
        return self.faulted_trials / self.trials
