"""The span tracer: nested wall-time spans behind one cheap front door.

Usage at an instrumentation site::

    from repro.obs.tracing import trace

    with trace("executor.group", specs=len(specs)) as span:
        ...
        span.set(words=total_words)

When tracing is disabled (the default) ``trace`` returns a shared no-op
span — no allocation, no clock read, no branch beyond one global load —
so instrumentation may sit on hot paths.  Enabled via
``REPRO_TRACE=<path|stderr|stdout>`` (read once at import) or
programmatically through :func:`enable_tracing`.  The collected tree
flushes at interpreter exit; pool workers (:mod:`repro.runtime.pool`) start their own tracer
on ``<path>.<pid>`` so children never clobber the parent's file, and
flush it after every task because they exit via ``os._exit``.

Trace documents are versioned JSON::

    {"format": 2, "pid": ..., "spans": [...],
     "metrics": {"counters": {name: count}}}

where each span is ``{"name", "start_ns", "duration_ns", "attrs",
"children"}`` with ``start_ns`` relative to the tracer's origin.
Format 2 holds counters only; format 1 also carried gauges and
histograms.
:func:`validate_trace` is the schema checker shared with
``tools/trace.py --check``.

Tracing is observational only: span attributes record counts, widths,
and timings — never content keys, seeds, or RNG state — and nothing on
a result path may read tracer state.  Enabling tracing must not move a
single frozen digest; ``tests/obs/test_trace_determinism.py`` pins
that.
"""

from __future__ import annotations

import atexit
import json
import os
import sys
import time

from repro.errors import ConfigError
from repro.obs.metrics import _NAME_RE, metrics_snapshot

__all__ = [
    "Span",
    "Stopwatch",
    "TRACE_FORMAT_VERSION",
    "clock_ns",
    "disable_tracing",
    "enable_tracing",
    "flush_trace",
    "stopwatch",
    "trace",
    "trace_sink",
    "tracing_enabled",
    "validate_trace",
]

TRACE_FORMAT_VERSION = 2

_SCALAR_TYPES = (str, int, float, bool, type(None))


def clock_ns() -> int:
    """The monotonic clock, in nanoseconds — *the* clock front door.

    Everything in ``src/repro`` that needs elapsed time reads it here
    (or via :func:`stopwatch`/:func:`trace`); codelint RL500 bans raw
    ``time.*`` calls everywhere else so timing can never leak into a
    result or a key unnoticed.
    """
    return time.perf_counter_ns()


class Stopwatch:
    """Elapsed time since construction, for display-only timing."""

    __slots__ = ("start_ns",)

    def __init__(self) -> None:
        self.start_ns = clock_ns()

    @property
    def elapsed_ns(self) -> int:
        return clock_ns() - self.start_ns

    @property
    def elapsed_s(self) -> float:
        return self.elapsed_ns / 1e9


def stopwatch() -> Stopwatch:
    """A started :class:`Stopwatch`."""
    return Stopwatch()


class Span:
    """One timed node of the span tree (context manager)."""

    __slots__ = (
        "name",
        "attrs",
        "start_ns",
        "duration_ns",
        "children",
        "_tracer",
    )

    def __init__(self, tracer: "Tracer", name: str, attrs: dict) -> None:
        self.name = name
        self.attrs = attrs
        self.start_ns = 0
        self.duration_ns = 0
        self.children: list[Span] = []
        self._tracer = tracer

    def set(self, **attrs) -> None:
        """Attach or update attributes after the span has opened."""
        self.attrs.update(attrs)

    def __enter__(self) -> "Span":
        self._tracer.stack.append(self)
        self.start_ns = clock_ns()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.duration_ns = clock_ns() - self.start_ns
        self._tracer._close(self)
        return False

    def to_json(self, origin_ns: int) -> dict:
        return {
            "name": self.name,
            "start_ns": self.start_ns - origin_ns,
            "duration_ns": self.duration_ns,
            "attrs": {k: _coerce_attr(v) for k, v in self.attrs.items()},
            "children": [c.to_json(origin_ns) for c in self.children],
        }


def _coerce_attr(value):
    """Attribute values as JSON scalars (lists of scalars allowed)."""
    if isinstance(value, _SCALAR_TYPES):
        return value
    if isinstance(value, (list, tuple)) and all(
        isinstance(v, _SCALAR_TYPES) for v in value
    ):
        return list(value)
    return repr(value)


class _NoopSpan:
    """The shared do-nothing span returned while tracing is disabled."""

    __slots__ = ()

    def set(self, **attrs) -> None:
        pass

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


NOOP_SPAN = _NoopSpan()


class Tracer:
    """Collects the span tree for one process."""

    def __init__(self, sink: str) -> None:
        self.sink = sink
        self.pid = os.getpid()
        self.origin_ns = clock_ns()
        self.roots: list[Span] = []
        self.stack: list[Span] = []

    def _close(self, span: Span) -> None:
        # Defensive against mismatched nesting (an abandoned span on an
        # exception path): closing a span pops it wherever it sits.
        if self.stack and self.stack[-1] is span:
            self.stack.pop()
        elif span in self.stack:
            self.stack.remove(span)
        if self.stack:
            self.stack[-1].children.append(span)
        else:
            self.roots.append(span)

    def document(self) -> dict:
        """The versioned trace document for everything collected so far.

        Spans still open are serialised with their running duration so
        an atexit flush during a crash still shows where time went.
        """
        now = clock_ns()
        open_spans = []
        for span in self.stack:
            copy = Span(self, span.name, dict(span.attrs, open=True))
            copy.start_ns = span.start_ns
            copy.duration_ns = now - span.start_ns
            copy.children = span.children
            open_spans.append(copy)
        return {
            "format": TRACE_FORMAT_VERSION,
            "pid": os.getpid(),
            "spans": [
                s.to_json(self.origin_ns) for s in self.roots + open_spans
            ],
            "metrics": metrics_snapshot(),
        }


_TRACER: Tracer | None = None


def tracing_enabled() -> bool:
    """Whether a tracer is active in this process."""
    return _TRACER is not None


def trace_sink() -> str | None:
    """This process's trace sink, or ``None`` when tracing is off."""
    return None if _TRACER is None else _TRACER.sink


def trace(name: str, **attrs):
    """A span context manager, or the shared no-op when disabled."""
    tracer = _TRACER
    if tracer is None:
        return NOOP_SPAN
    return Span(tracer, name, attrs)


def enable_tracing(sink: str = "stderr") -> None:
    """Start collecting spans, flushing to ``sink`` at exit.

    ``sink`` is a file path, ``"stderr"``, or ``"stdout"``.  If tracing
    is already enabled only the sink is re-pointed — the collected tree
    survives, so a later call does not discard spans recorded since
    ``REPRO_TRACE`` enabled tracing at import.
    """
    global _TRACER
    if not sink:
        raise ConfigError("trace sink must be a path, 'stderr' or 'stdout'")
    if _TRACER is not None:
        _TRACER.sink = sink
        return
    _TRACER = Tracer(sink)


def disable_tracing() -> None:
    """Drop the tracer (and any unflushed spans) for this process."""
    global _TRACER
    _TRACER = None


def flush_trace() -> str | None:
    """Write the trace document to its sink; returns the destination.

    Returns ``None`` when tracing is disabled.  Writing to a path
    rewrites the whole document, so repeated flushes are safe; a forked
    worker (pid differs from the tracer's) writes ``<path>.<pid>``.
    """
    tracer = _TRACER
    if tracer is None:
        return None
    document = tracer.document()
    payload = json.dumps(document, sort_keys=True)
    sink = tracer.sink
    if sink in ("stderr", "stdout"):
        stream = sys.stderr if sink == "stderr" else sys.stdout
        stream.write(payload + "\n")
        return sink
    if os.getpid() != tracer.pid:
        sink = f"{sink}.{os.getpid()}"
    with open(sink, "w", encoding="utf-8") as handle:
        handle.write(payload + "\n")
    return sink


def _atexit_flush() -> None:  # pragma: no cover - exercised via subprocess
    if _TRACER is not None:
        flush_trace()


atexit.register(_atexit_flush)


# ----------------------------------------------------------------------
# Schema validation (shared with tools/trace.py --check)
# ----------------------------------------------------------------------


def _validate_span(span, where: str, problems: list[str]) -> None:
    if not isinstance(span, dict):
        problems.append(f"{where}: span is not an object")
        return
    if not isinstance(span.get("name"), str) or not span.get("name"):
        problems.append(f"{where}: missing or empty span name")
    for field in ("start_ns", "duration_ns"):
        value = span.get(field)
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            problems.append(f"{where}: {field} is not a non-negative int")
    attrs = span.get("attrs")
    if not isinstance(attrs, dict):
        problems.append(f"{where}: attrs is not an object")
    else:
        for key, value in attrs.items():
            ok = isinstance(value, _SCALAR_TYPES) or (
                isinstance(value, list)
                and all(isinstance(v, _SCALAR_TYPES) for v in value)
            )
            if not ok:
                problems.append(f"{where}: attr {key!r} is not a JSON scalar")
    children = span.get("children")
    if not isinstance(children, list):
        problems.append(f"{where}: children is not a list")
        return
    for index, child in enumerate(children):
        _validate_span(child, f"{where}.children[{index}]", problems)


def validate_trace(document) -> list[str]:
    """Schema problems of a parsed trace document (empty list = valid)."""
    problems: list[str] = []
    if not isinstance(document, dict):
        return ["trace document is not a JSON object"]
    if document.get("format") != TRACE_FORMAT_VERSION:
        problems.append(
            f"format is {document.get('format')!r}, expected "
            f"{TRACE_FORMAT_VERSION}"
        )
    if not isinstance(document.get("pid"), int):
        problems.append("pid is not an int")
    spans = document.get("spans")
    if not isinstance(spans, list):
        problems.append("spans is not a list")
    else:
        for index, span in enumerate(spans):
            _validate_span(span, f"spans[{index}]", problems)
    metrics = document.get("metrics")
    if not isinstance(metrics, dict):
        problems.append("metrics is not an object")
    elif not isinstance(metrics.get("counters"), dict):
        problems.append("metrics.counters is not an object")
    else:
        for name, value in metrics["counters"].items():
            if not _NAME_RE.match(name):
                problems.append(f"counter {name!r} is not a dotted lowercase path")
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                problems.append(f"counter {name!r} is not a non-negative int")
    return problems


def _init_from_env() -> None:
    sink = os.environ.get("REPRO_TRACE")
    if sink:
        enable_tracing(sink)


_init_from_env()
