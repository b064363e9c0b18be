"""Process-wide metrics registry: counters, gauges, histograms.

Metrics are named with stable dotted paths following the convention
``<layer>.<noun>[.<unit>]`` — e.g. ``executor.stacked_points``,
``jobs.store.hit``, ``backend.numpy.kernel_ns``.  Names are part of the
public observability contract: tools and tests match on them, so a
rename is an API change.

The registry is a plain process-global dictionary.  Hot paths hold a
direct reference to their metric object (module-level
``_POINTS = counter("executor.points")``) so recording is one attribute
increment, not a dict lookup.  :func:`reset_metrics` therefore zeroes
metrics *in place* — the objects survive so held references stay live.

Metrics are observational only.  Nothing result-affecting may ever read
a metric: content keys, RNG streams, and stored results are functions
of explicit inputs, and the codelint layer (RL110-RL112, RL500) holds
that boundary closed from the other side.
"""

from __future__ import annotations

import re

from repro.errors import ConfigError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "counter",
    "gauge",
    "histogram",
    "metrics_snapshot",
    "reset_metrics",
]

#: Legal metric names: lowercase dotted paths with at least two
#: segments, so every metric states the layer it belongs to.
_NAME_RE = re.compile(r"^[a-z0-9_]+(\.[a-z0-9_]+)+$")


class Counter:
    """A monotonically increasing count (events, points, cache hits)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ConfigError(
                f"counter {self.name!r} is monotonic; cannot inc({amount})"
            )
        self.value += amount

    def reset(self) -> None:
        self.value = 0

    def snapshot(self) -> int:
        return self.value


class Gauge:
    """A point-in-time level (shards pending, pool width)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def set(self, value) -> None:
        self.value = value

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def reset(self) -> None:
        self.value = 0

    def snapshot(self):
        return self.value


class Histogram:
    """A streaming summary of observed values: count/total/min/max.

    Deliberately bucket-free — the trace file carries per-span timings
    for anyone who needs a distribution; the histogram answers "how
    many, how much, how extreme" at O(1) memory.
    """

    __slots__ = ("name", "count", "total", "min", "max")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0
        self.min = None
        self.max = None

    def observe(self, value) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def reset(self) -> None:
        self.count = 0
        self.total = 0
        self.min = None
        self.max = None

    def snapshot(self) -> dict:
        mean = self.total / self.count if self.count else None
        return {
            "count": self.count,
            "total": self.total,
            "mean": mean,
            "min": self.min,
            "max": self.max,
        }


class MetricsRegistry:
    """A name -> metric map with kind checking and stable snapshots."""

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    def _get(self, name: str, kind):
        metric = self._metrics.get(name)
        if metric is None:
            if not _NAME_RE.match(name):
                raise ConfigError(
                    f"metric name {name!r} is not a dotted lowercase path "
                    f"(expected e.g. 'executor.stacked_points')"
                )
            metric = kind(name)
            self._metrics[name] = metric
        elif not isinstance(metric, kind):
            raise ConfigError(
                f"metric {name!r} is already registered as "
                f"{type(metric).__name__}, not {kind.__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def snapshot(self) -> dict:
        """All metrics by kind, names sorted, as plain JSON-able data."""
        out: dict = {"counters": {}, "gauges": {}, "histograms": {}}
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if isinstance(metric, Counter):
                out["counters"][name] = metric.snapshot()
            elif isinstance(metric, Gauge):
                out["gauges"][name] = metric.snapshot()
            else:
                out["histograms"][name] = metric.snapshot()
        return out

    def reset(self) -> None:
        """Zero every metric in place (held references stay valid)."""
        for metric in self._metrics.values():
            metric.reset()


#: The process-wide registry.  One per process by design: pooled
#: workers accumulate their own and flush their own trace file.
REGISTRY = MetricsRegistry()


def counter(name: str) -> Counter:
    """The process-wide counter called ``name`` (created on first use)."""
    return REGISTRY.counter(name)


def gauge(name: str) -> Gauge:
    """The process-wide gauge called ``name`` (created on first use)."""
    return REGISTRY.gauge(name)


def histogram(name: str) -> Histogram:
    """The process-wide histogram ``name`` (created on first use)."""
    return REGISTRY.histogram(name)


def metrics_snapshot() -> dict:
    """A stable-ordered snapshot of every registered metric."""
    return REGISTRY.snapshot()


def reset_metrics() -> None:
    """Zero all metrics in place (test isolation helper)."""
    REGISTRY.reset()
