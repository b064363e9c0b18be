"""Render and validate repro.obs trace documents.

Usage over a trace file written via ``REPRO_TRACE=<path>`` (read once
when :mod:`repro.obs` is imported) or
:func:`repro.obs.tracing.enable_tracing`::

    python tools/trace.py TRACE.json              # span tree + top spans
    python tools/trace.py TRACE.json --top 20     # wider flat profile
    python tools/trace.py TRACE.json --metrics    # the counters
    python tools/trace.py TRACE.json --check      # schema validation only

The default render shows the span tree (total and self milliseconds per
span, with its recorded attributes) followed by a flat profile of span
names ranked by aggregated self time — self time being a span's
duration minus its children's, i.e. where the wall clock actually went.
``--check`` validates against the versioned schema shared with
:func:`repro.obs.tracing.validate_trace` and prints nothing on success: exit 0
valid, 1 schema problems, 2 unreadable file — the same "2 means the
driver, not the data" convention the other tools use.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.obs.tracing import validate_trace


def _self_ns(span: dict) -> int:
    """A span's duration minus its children's — its own work."""
    children = sum(child["duration_ns"] for child in span["children"])
    return max(span["duration_ns"] - children, 0)


def _format_attrs(attrs: dict) -> str:
    if not attrs:
        return ""
    inner = ", ".join(f"{key}={value}" for key, value in sorted(attrs.items()))
    return f"  [{inner}]"


def _render_span(span: dict, depth: int, lines: list[str]) -> None:
    lines.append(
        f"{span['duration_ns'] / 1e6:>10.3f} {_self_ns(span) / 1e6:>10.3f}  "
        f"{'  ' * depth}{span['name']}{_format_attrs(span['attrs'])}"
    )
    for child in span["children"]:
        _render_span(child, depth + 1, lines)


def _walk(span: dict):
    yield span
    for child in span["children"]:
        yield from _walk(child)


def render_tree(document: dict, top: int) -> str:
    """The span tree plus the flat self-time profile."""
    lines = [f"{'total_ms':>10} {'self_ms':>10}  span"]
    for root in document["spans"]:
        _render_span(root, 0, lines)
    by_name: dict[str, list[int]] = {}
    for root in document["spans"]:
        for span in _walk(root):
            aggregate = by_name.setdefault(span["name"], [0, 0])
            aggregate[0] += _self_ns(span)
            aggregate[1] += 1
    ranked = sorted(by_name.items(), key=lambda item: item[1][0], reverse=True)
    lines.append("")
    lines.append(f"{'self_ms':>10} {'calls':>7}  top spans by self time")
    for name, (self_ns, calls) in ranked[:top]:
        lines.append(f"{self_ns / 1e6:>10.3f} {calls:>7}  {name}")
    return "\n".join(lines)


def render_metrics(document: dict) -> str:
    """The trace's counters, one dotted name per line."""
    counters = document["metrics"]["counters"]
    lines = [f"counter {name} = {value}" for name, value in sorted(counters.items())]
    return "\n".join(lines) if lines else "no counters recorded"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="tools/trace.py", description=__doc__.splitlines()[0]
    )
    parser.add_argument("trace", type=Path, help="trace JSON file to read")
    parser.add_argument(
        "--top",
        type=int,
        default=10,
        help="rows in the flat self-time profile (default 10)",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="print the embedded counters instead of the span tree",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="validate the document schema and print nothing on success",
    )
    arguments = parser.parse_args(argv)
    try:
        document = json.loads(arguments.trace.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read trace {arguments.trace}: {exc}",
              file=sys.stderr)
        return 2
    problems = validate_trace(document)
    if problems:
        for problem in problems:
            print(f"invalid trace: {problem}", file=sys.stderr)
        return 1
    if arguments.check:
        return 0
    if arguments.metrics:
        print(render_metrics(document))
        return 0
    print(render_tree(document, arguments.top))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:  # piped into head; not an error
        sys.exit(0)
