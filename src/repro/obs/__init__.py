"""``repro.obs`` — tracing, metrics, and profiling behind one front door.

The observability layer of the reproduction: a span tracer
(:func:`trace`), the process-wide counters (:func:`counter`), and the
clock front door (:func:`clock_ns` / :func:`stopwatch`).  Zero
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
  :func:`trace`, :func:`stopwatch`, or :func:`clock_ns`.
"""

from repro.obs.metrics import Counter, counter, metrics_snapshot, reset_metrics
from repro.obs.tracing import (
    Span,
    Stopwatch,
    TRACE_FORMAT_VERSION,
    clock_ns,
    disable_tracing,
    enable_tracing,
    flush_trace,
    stopwatch,
    trace,
    trace_sink,
    tracing_enabled,
    validate_trace,
)

__all__ = [
    "Counter",
    "Span",
    "Stopwatch",
    "TRACE_FORMAT_VERSION",
    "clock_ns",
    "counter",
    "disable_tracing",
    "enable_tracing",
    "flush_trace",
    "metrics_snapshot",
    "reset_metrics",
    "stopwatch",
    "trace",
    "trace_sink",
    "tracing_enabled",
    "validate_trace",
]
