"""The kernel-timing sampling knob (``REPRO_OBS_SAMPLE``).

Per-slot kernel timing would put two clock reads inside the hottest
loop in the repository, so it is off by default and *sampled* when on:
``REPRO_OBS_SAMPLE=N`` times every Nth ``apply_slot`` call (``1`` times
all of them, ``0``/unset times none).  :func:`repro.backends.prepare`
consults :func:`sample_every` once per call and wraps the program only
when sampling is active, so the disabled path costs nothing at all.

Sampling only reads the clock — it never touches the RNG stream or any
key, so any sampling rate produces bit-identical results.
"""

from __future__ import annotations

import os

from repro.errors import ConfigError

__all__ = ["configure_sampling", "sample_every"]

_SAMPLE_EVERY = 0


def configure_sampling(every: int) -> None:
    """Time every ``every``-th kernel call (0 disables sampling)."""
    global _SAMPLE_EVERY
    if not isinstance(every, int) or every < 0:
        raise ConfigError(
            f"sampling interval must be a non-negative int, got {every!r}"
        )
    _SAMPLE_EVERY = every


def sample_every() -> int:
    """The current sampling interval (0 = kernel timing off)."""
    return _SAMPLE_EVERY


def _init_from_env() -> None:
    raw = os.environ.get("REPRO_OBS_SAMPLE")
    if raw is None or raw == "":
        return
    try:
        every = int(raw)
    except ValueError as exc:
        raise ConfigError(
            f"REPRO_OBS_SAMPLE={raw!r} is not an integer"
        ) from exc
    configure_sampling(every)


_init_from_env()
