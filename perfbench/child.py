"""Fresh-interpreter probes the benchmark runs as child processes.

``child.py setup <workload> <seed> <workdir>`` times a cold start: the
import of the workload's entry module, a cold compile and backend
prepare of its circuit, and one 64-trial call.  It prints one JSON line.

``child.py report <loops> [<trace-path>]`` runs ``repro.report`` once
and exits with its status.  It prints one JSON line: the report's last
line, the time of the import and of each experiment, as measured and at
reference speed (with ``loops`` 1; with 0 no reference loop runs), and
the time its reference loops took.  Given a trace path, it runs under
the span tracer, with a ``bench.experiment`` span around each
experiment, and writes the trace document there.

Nothing but the reference loop is imported before the clock starts, so
the import time is the cold one.
"""

import sys
import time

from perfbench.speed import Parts

PARTS = Parts(reference=sys.argv[1:3] != ["report", "0"])
BEFORE = PARTS.loop()
START = time.perf_counter()

import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
from contextlib import redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

#: The module a workload's user imports first.
ENTRY = {
    "sweep-sparse": "repro.runtime",
    "threshold-search": "repro.harness.threshold_finder",
    "jobs-sweep": "repro.jobs",
    "report-cold": "repro.report",
}


def setup(name: str, seed: int, workdir: Path) -> None:
    importlib.import_module(ENTRY[name])
    imported = time.perf_counter()
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[name](seed, False, workdir)
    timings = workload.setup_probe()
    end = imported if workload.setup_is_import else time.perf_counter()
    PARTS.add_between("setup", end - START, BEFORE, PARTS.loop())
    timings.update(
        import_ms=(imported - START) * 1e3,
        setup_s=PARTS.at_reference["setup"],
        setup_measured_s=PARTS.seconds["setup"],
    )
    print(json.dumps(timings))


def report(trace_path: str | None) -> int:
    import repro.report

    PARTS.add_between("import", time.perf_counter() - START, BEFORE, PARTS.loop())
    from repro.obs import disable_tracing, enable_tracing, flush_trace, trace

    from perfbench.layers import instrument_experiments

    instrument_experiments(repro.report, PARTS)
    if trace_path:
        enable_tracing(trace_path)
    output = io.StringIO()
    with redirect_stdout(output), trace("bench.iteration"):
        status = repro.report.main()
    if trace_path:
        flush_trace()
        disable_tracing()
    lines = output.getvalue().strip().splitlines()
    print(json.dumps({
        "last_line": lines[-1] if lines else "",
        "seconds": PARTS.seconds,
        "at_reference": PARTS.at_reference,
        "loop_s": PARTS.loop_seconds,
    }))
    return status


if __name__ == "__main__":
    mode, *args = sys.argv[1:]
    if mode == "setup":
        setup(args[0], int(args[1]), Path(args[2]))
    elif mode == "report":
        sys.exit(report(args[1] if len(args) > 1 else None))
    else:
        sys.exit(f"unknown mode {mode!r}")
