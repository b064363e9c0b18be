"""``repro.obs`` — span tracing, process counters and the one clock.

The observability layer of the reproduction: a span tracer
(:func:`~repro.obs.tracing.trace`), the process-wide counters
(:func:`~repro.obs.metrics.counter`), and the clock front door
(:func:`~repro.obs.tracing.clock_ns` /
:func:`~repro.obs.tracing.stopwatch`).  Zero
dependencies beyond the standard library; strictly no-op-cheap when
disabled.

The one knob (read once at import):

* ``REPRO_TRACE=<path|stderr|stdout>`` — collect a span tree and flush
  it as versioned JSON at exit (render with ``tools/trace.py``).

Two invariants, both pinned by tests and codelint:

* **Observation never feeds results.**  No RNG draw, content key, or
  stored number may depend on tracer or metric state; enabling tracing
  leaves every frozen digest bit-identical.
* **One clock.**  Raw ``time.*`` calls are banned in ``src/repro``
  outside this package (codelint RL500); elapsed time flows through
  ``trace``, ``stopwatch``, or ``clock_ns``.
"""

# Kept for the benchmark; delete with the next benchmark change.
from repro.obs.metrics import metrics_snapshot
from repro.obs.tracing import (
    disable_tracing,
    enable_tracing,
    flush_trace,
    trace,
)

__all__ = [
    "disable_tracing",
    "enable_tracing",
    "flush_trace",
    "metrics_snapshot",
    "trace",
]
