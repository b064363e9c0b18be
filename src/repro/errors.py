"""Exception hierarchy for the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch library failures without also catching unrelated
built-in exceptions.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class GateDefinitionError(ReproError):
    """A gate definition is malformed (not a permutation, bad arity...)."""


class CircuitError(ReproError):
    """A circuit is malformed or an operation is invalid on it."""


class SimulationError(ReproError):
    """A simulation was asked to do something unsupported or inconsistent."""


class ConfigError(SimulationError):
    """A configuration knob has an invalid value.

    Raised when a ``REPRO_*`` environment variable or an
    :class:`~repro.runtime.ExecutionPolicy` field is out of range or
    fails to parse — configuration mistakes must fail loudly instead of
    silently falling back to defaults.  Subclasses
    :class:`SimulationError` so existing handlers keep working.
    """


class CodingError(ReproError):
    """An encoding/decoding operation on a code is invalid."""


class LocalityError(ReproError):
    """A circuit violates the locality constraints of a lattice."""


class AnalysisError(ReproError):
    """An analytic computation received parameters outside its domain."""


class SynthesisError(ReproError):
    """A circuit-synthesis request is malformed or unsatisfiable."""


class SerializationError(ReproError):
    """A value cannot be converted to or from its JSON wire form.

    Raised when a :class:`~repro.runtime.RunSpec` (or one of its
    parts: circuit, observable, noise model, seed) is asked to
    round-trip through JSON but carries state with no registered wire
    form — an unpicklable-by-path predicate, a live RNG generator, an
    unregistered decoder type — or when stored JSON declares a format
    version this code does not understand.
    """


class VerificationError(ReproError):
    """A static-verification pass could not interpret its input.

    Raised by the symbolic IR verifier (:mod:`repro.verify`) and the
    GF(2) algebra underneath it (:mod:`repro.core.anf`) when an
    artifact is structurally uninterpretable — a malformed plane
    expression, a table of the wrong size, a kernel plan the symbolic
    interpreter has no model for.  Semantic *mismatches* are not
    exceptions: they are reported as diagnostics, so one broken slot
    cannot hide the others.
    """


class JobError(ReproError):
    """A sweep job or its result store is malformed or inconsistent.

    Covers manifest mismatches (resubmitting a *different* sweep into
    an existing job directory), corrupt or stale result-store entries
    (content digest no longer matching the stored payload), and shards
    that fail on the process pool.
    """
