"""``repro.obs`` — tracing, metrics, and profiling behind one front door.

The observability layer of the reproduction: a span tracer
(:func:`trace`), a process-wide metrics registry (:func:`counter` /
:func:`gauge` / :func:`histogram`), the sampled kernel-timing knob
(:mod:`~repro.obs.sampling`), and the clock front door
(:func:`clock_ns` / :func:`stopwatch`).  Zero dependencies beyond the
standard library; strictly no-op-cheap when disabled.

Knobs (read once at import):

* ``REPRO_TRACE=<path|stderr|stdout>`` — collect a span tree and flush
  it as versioned JSON at exit (render with ``tools/trace.py``).
* ``REPRO_OBS_SAMPLE=N`` — time every Nth slot-kernel call into the
  ``backend.numpy.kernel_ns`` histogram.

Two invariants, both pinned by tests and codelint:

* **Observation never feeds results.**  No RNG draw, content key, or
  stored number may depend on tracer or metric state; enabling tracing
  leaves every frozen digest bit-identical.
* **One clock.**  Raw ``time.*`` calls are banned in ``src/repro``
  outside this package (codelint RL500); elapsed time flows through
  :func:`trace`, :func:`stopwatch`, or :func:`clock_ns`.
"""

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    REGISTRY,
    counter,
    gauge,
    histogram,
    metrics_snapshot,
    reset_metrics,
)
from repro.obs.sampling import configure_sampling, sample_every
from repro.obs.tracing import (
    Span,
    Stopwatch,
    TRACE_FORMAT_VERSION,
    clock_ns,
    disable_tracing,
    enable_tracing,
    flush_trace,
    flush_trace_if_forked,
    stopwatch,
    trace,
    tracing_enabled,
    validate_trace,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "Span",
    "Stopwatch",
    "TRACE_FORMAT_VERSION",
    "clock_ns",
    "configure_sampling",
    "counter",
    "disable_tracing",
    "enable_tracing",
    "flush_trace",
    "flush_trace_if_forked",
    "gauge",
    "histogram",
    "metrics_snapshot",
    "reset_metrics",
    "sample_every",
    "stopwatch",
    "trace",
    "tracing_enabled",
    "validate_trace",
]
