"""The tools/trace.py command line: render, --metrics, --check, exit codes."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from repro.obs.metrics import counter
from repro.obs.tracing import (
    TRACE_FORMAT_VERSION,
    disable_tracing,
    enable_tracing,
    flush_trace,
    trace,
)

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def trace_cli():
    spec = importlib.util.spec_from_file_location(
        "tools_trace", REPO_ROOT / "tools" / "trace.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def traced_file(tmp_path):
    """A trace file the tracer itself wrote: two nested spans."""
    sink = tmp_path / "trace.json"
    disable_tracing()
    enable_tracing(str(sink))
    try:
        with trace("cli.outer", points=4):
            with trace("cli.inner"):
                counter("cli.test.ticks").inc(3)
        flush_trace()
    finally:
        disable_tracing()
    return sink


def _format_1(path: Path) -> Path:
    """A format-1 document: metrics with gauges and histograms."""
    document = {
        "format": 1,
        "pid": 1,
        "spans": [],
        "metrics": {"counters": {"a.b": 1}, "gauges": {}, "histograms": {}},
    }
    path.write_text(json.dumps(document))
    return path


def test_valid_file_prints_the_tree(trace_cli, traced_file, capsys):
    assert json.loads(traced_file.read_text())["format"] == TRACE_FORMAT_VERSION == 2
    assert trace_cli.main([str(traced_file)]) == 0
    out = capsys.readouterr().out
    tree = out.splitlines()
    assert tree[0].split() == ["total_ms", "self_ms", "span"]
    assert tree[1].endswith("cli.outer  [points=4]")
    assert tree[2].endswith("  cli.inner")
    assert "top spans by self time" in out


def test_check_prints_nothing_on_a_valid_file(trace_cli, traced_file, capsys):
    assert trace_cli.main([str(traced_file), "--check"]) == 0
    assert capsys.readouterr() == ("", "")


def test_check_refuses_format_1(trace_cli, tmp_path, capsys):
    path = _format_1(tmp_path / "old.json")
    assert trace_cli.main([str(path), "--check"]) == 1
    assert "format is 1, expected 2" in capsys.readouterr().err


@pytest.mark.parametrize("content", [None, "{not json"], ids=["missing", "corrupt"])
def test_unreadable_file_exits_2(trace_cli, tmp_path, capsys, content):
    path = tmp_path / "trace.json"
    if content is not None:
        path.write_text(content)
    assert trace_cli.main([str(path)]) == 2
    assert "cannot read trace" in capsys.readouterr().err


def test_metrics_prints_only_counter_lines(trace_cli, traced_file, capsys):
    assert trace_cli.main([str(traced_file), "--metrics"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines and all(line.startswith("counter ") for line in lines)
    # The counter is process-wide, so each traced_file adds 3 to it.
    assert f"counter cli.test.ticks = {counter('cli.test.ticks').value}" in lines
