"""Process-wide counters: the one place a count lives.

Counters are named with stable dotted paths following the convention
``<layer>.<noun>[.<unit>]`` — e.g. ``executor.stacked_points``,
``jobs.store.hit``, ``compile.cache.miss``.  Names are part of the
public observability contract: tools and tests match on them, so a
rename is an API change.

The registry is a plain process-global dictionary.  Hot paths hold a
direct reference to their counter (module-level
``_RUNS = counter("executor.runs")``) so recording is one attribute
increment, not a dict lookup.  :func:`reset_metrics` therefore zeroes
counters *in place* — the objects survive so held references stay live.

Counters are observational only.  Nothing result-affecting may ever
read one: content keys, RNG streams, and stored results are functions
of explicit inputs, and the codelint layer (RL110-RL112, RL500) holds
that boundary closed from the other side.
"""

from __future__ import annotations

import re

from repro.errors import ConfigError

__all__ = ["Counter", "counter", "metrics_snapshot", "reset_metrics"]

#: Legal counter names: lowercase dotted paths with at least two
#: segments, so every counter states the layer it belongs to.
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

    def snapshot(self) -> int:
        return self.value


#: Every counter of this process, by name.  One per process by design:
#: pooled workers count their own and flush their own trace file.
_COUNTERS: dict[str, Counter] = {}


def counter(name: str) -> Counter:
    """The process-wide counter called ``name`` (created on first use)."""
    metric = _COUNTERS.get(name)
    if metric is None:
        if not _NAME_RE.match(name):
            raise ConfigError(
                f"counter name {name!r} is not a dotted lowercase path "
                f"(expected e.g. 'executor.stacked_points')"
            )
        metric = _COUNTERS[name] = Counter(name)
    return metric


def metrics_snapshot() -> dict:
    """``{"counters": {name: value}}``, names sorted, as plain JSON data."""
    return {
        "counters": {name: _COUNTERS[name].value for name in sorted(_COUNTERS)}
    }


def reset_metrics() -> None:
    """Zero every counter in place (held references stay valid)."""
    for metric in _COUNTERS.values():
        metric.value = 0
