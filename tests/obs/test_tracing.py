"""The span tracer: no-op default, span trees, flush, validation."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.errors import ConfigError
from repro.obs.tracing import (
    NOOP_SPAN,
    clock_ns,
    disable_tracing,
    enable_tracing,
    flush_trace,
    stopwatch,
    trace,
    tracing_enabled,
    validate_trace,
)

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(autouse=True)
def _no_tracer():
    disable_tracing()
    yield
    disable_tracing()


class TestDisabled:
    def test_trace_returns_shared_noop(self):
        assert trace("a.b") is NOOP_SPAN
        assert trace("c.d", attr=1) is NOOP_SPAN

    def test_noop_span_is_inert(self):
        with trace("a.b") as span:
            span.set(anything=1)
        assert not tracing_enabled()

    def test_flush_returns_none(self):
        assert flush_trace() is None


class TestEnabled:
    def test_span_tree_nests(self, tmp_path):
        sink = tmp_path / "trace.json"
        enable_tracing(str(sink))
        with trace("outer.span", width=4) as outer:
            with trace("inner.span"):
                pass
            outer.set(late=True)
        destination = flush_trace()
        assert destination == str(sink)
        document = json.loads(sink.read_text())
        assert validate_trace(document) == []
        (root,) = [s for s in document["spans"] if s["name"] == "outer.span"]
        assert root["attrs"] == {"width": 4, "late": True}
        assert [c["name"] for c in root["children"]] == ["inner.span"]
        assert root["duration_ns"] >= root["children"][0]["duration_ns"]

    def test_open_spans_serialise_with_running_duration(self, tmp_path):
        enable_tracing(str(tmp_path / "trace.json"))
        span = trace("left.open")
        span.__enter__()
        destination = flush_trace()
        document = json.loads(Path(destination).read_text())
        (open_span,) = [
            s for s in document["spans"] if s["name"] == "left.open"
        ]
        assert open_span["attrs"]["open"] is True
        assert open_span["duration_ns"] > 0
        span.__exit__(None, None, None)

    def test_reenable_repoints_sink_keeping_spans(self, tmp_path):
        enable_tracing(str(tmp_path / "first.json"))
        with trace("kept.span"):
            pass
        enable_tracing(str(tmp_path / "second.json"))
        destination = flush_trace()
        assert destination == str(tmp_path / "second.json")
        document = json.loads(Path(destination).read_text())
        assert [s["name"] for s in document["spans"]] == ["kept.span"]

    def test_empty_sink_refused(self):
        with pytest.raises(ConfigError, match="sink"):
            enable_tracing("")
        assert not tracing_enabled()

    def test_stderr_sink_gets_the_document(self, capsys):
        enable_tracing("stderr")
        with trace("stream.span"):
            pass
        assert flush_trace() == "stderr"
        document = json.loads(capsys.readouterr().err)
        assert validate_trace(document) == []
        assert [s["name"] for s in document["spans"]] == ["stream.span"]

    def test_non_scalar_attrs_coerced(self, tmp_path):
        enable_tracing(str(tmp_path / "trace.json"))
        with trace("attr.span", items=(1, 2), obj={"not": "scalar"}):
            pass
        document = json.loads(Path(flush_trace()).read_text())
        assert validate_trace(document) == []
        attrs = document["spans"][0]["attrs"]
        assert attrs["items"] == [1, 2]
        assert isinstance(attrs["obj"], str)


class TestClock:
    def test_clock_monotonic(self):
        assert clock_ns() <= clock_ns()

    def test_stopwatch_elapsed(self):
        watch = stopwatch()
        assert watch.elapsed_ns >= 0
        assert watch.elapsed_s >= 0.0


class TestValidate:
    def test_rejects_non_object(self):
        assert validate_trace([]) != []

    def test_rejects_bad_format(self):
        problems = validate_trace(
            {"format": 99, "pid": 1, "spans": [], "metrics": {}}
        )
        assert any("format" in p for p in problems)

    def test_rejects_bad_span(self):
        document = {
            "format": 2,
            "pid": 1,
            "spans": [{"name": "", "start_ns": -1}],
            "metrics": {"counters": {}},
        }
        assert len(validate_trace(document)) >= 2

    @pytest.mark.parametrize(
        "edit,problem",
        [
            (lambda d: d.update(pid="1"), "pid is not an int"),
            (lambda d: d.update(spans={}), "spans is not a list"),
            (lambda d: d.update(metrics=[]), "metrics is not an object"),
            (lambda d: d["spans"].append(3), "span is not an object"),
            (
                lambda d: d["spans"].append(
                    {
                        "name": "a",
                        "start_ns": 0,
                        "duration_ns": 0,
                        "attrs": {"k": {"nested": 1}},
                        "children": [],
                    }
                ),
                "attr 'k' is not a JSON scalar",
            ),
            (lambda d: d.update(format=1), "format is 1, expected 2"),
            (
                lambda d: d["metrics"].update(counters=[]),
                "metrics.counters is not an object",
            ),
            (
                lambda d: d["metrics"]["counters"].update({"a.b": "x"}),
                "counter 'a.b' is not a non-negative int",
            ),
            (
                lambda d: d["metrics"]["counters"].update({"c.d": -3}),
                "counter 'c.d' is not a non-negative int",
            ),
            (
                lambda d: d["metrics"]["counters"].update({"e.f": True}),
                "counter 'e.f' is not a non-negative int",
            ),
            (
                lambda d: d["metrics"]["counters"].update({"g.h": 1.5}),
                "counter 'g.h' is not a non-negative int",
            ),
            (
                lambda d: d["metrics"]["counters"].update({"nodots": 1}),
                "counter 'nodots' is not a dotted lowercase path",
            ),
        ],
        ids=[
            "pid",
            "spans",
            "metrics",
            "span",
            "attr",
            "format-1",
            "counters",
            "counter-string",
            "counter-negative",
            "counter-bool",
            "counter-float",
            "counter-name",
        ],
    )
    def test_names_each_problem(self, edit, problem):
        document = {
            "format": 2,
            "pid": 1,
            "spans": [],
            "metrics": {"counters": {"executor.runs": 3}},
        }
        assert validate_trace(document) == []
        edit(document)
        assert any(problem in p for p in validate_trace(document))


def test_repro_trace_env_flushes_at_exit(tmp_path):
    # The whole contract end to end, as a user would hit it: set
    # REPRO_TRACE, run code, get a schema-valid trace file at exit
    # without calling anything in repro.obs explicitly.
    sink = tmp_path / "trace.json"
    env = dict(os.environ)
    env["REPRO_TRACE"] = str(sink)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    script = (
        "from repro.obs.tracing import trace\n"
        "with trace('smoke.span', n=3):\n"
        "    pass\n"
    )
    subprocess.run(
        [sys.executable, "-c", script], env=env, check=True, timeout=60
    )
    document = json.loads(sink.read_text())
    assert validate_trace(document) == []
    assert [s["name"] for s in document["spans"]] == ["smoke.span"]


def test_repro_trace_exported_after_import_does_not_trace(tmp_path):
    # REPRO_TRACE is read once, when repro.obs is imported; the
    # execution policy has no trace field, so an executor built after a
    # late export does not start tracing.
    sink = tmp_path / "trace.json"
    env = dict(os.environ)
    env.pop("REPRO_TRACE", None)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    script = (
        "import os\n"
        "from repro.core.circuit import Circuit\n"
        "from repro.noise.model import NoiseModel\n"
        "from repro.obs.tracing import tracing_enabled\n"
        "from repro.runtime.executor import Executor\n"
        "from repro.runtime.spec import MajorityMismatchObservable, RunSpec\n"
        f"os.environ['REPRO_TRACE'] = {str(sink)!r}\n"
        "spec = RunSpec(Circuit(3).maj(0, 1, 2), (1, 1, 1),\n"
        "               MajorityMismatchObservable((0, 1, 2), 1),\n"
        "               NoiseModel(gate_error=0.01), trials=10, seed=0)\n"
        "Executor().run([spec])\n"
        "assert not tracing_enabled()\n"
    )
    subprocess.run(
        [sys.executable, "-c", script], env=env, check=True, timeout=60
    )
    assert not sink.exists()
