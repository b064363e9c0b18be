"""Generate and check ``EXPERIMENTS.md``, the curated experiment record.

``EXPERIMENTS.md`` holds one section per registered experiment with its
latest paper-vs-measured table (read from ``benchmarks/results/``) and
the one-liner that regenerates it.  This module is the single source of
that file::

    python -m repro.harness.experiments_md            # rewrite EXPERIMENTS.md
    python -m repro.harness.experiments_md --run fig2 # re-run one experiment,
                                                      # refresh its results
                                                      # table and the record
    python -m repro.harness.experiments_md --check    # CI: re-run the whole
                                                      # registry and fail when
                                                      # EXPERIMENTS.md section
                                                      # names drift from it

``--check`` runs every experiment at the current ``REPRO_TRIALS`` (CI
uses a small budget — the goal is "still runs and still matches the
registry", not statistical precision) and then verifies that the
sections recorded in ``EXPERIMENTS.md`` are exactly the registry ids.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

from repro.harness.experiments import REGISTRY, ExperimentResult, run_experiment
from repro.harness.tables import paper_vs_measured

#: Repository root (this file lives at src/repro/harness/).
REPO_ROOT = Path(__file__).resolve().parents[3]
RESULTS_DIR = REPO_ROOT / "benchmarks" / "results"
RECORD_PATH = REPO_ROOT / "EXPERIMENTS.md"

_HEADING = re.compile(r"^## `(?P<experiment_id>[^`]+)`")

PREAMBLE = """\
# EXPERIMENTS — the curated paper-vs-measured record

One section per experiment registered in
`repro.harness.experiments.REGISTRY`; the tables are the latest output
of `benchmarks/results/` (written by `pytest benchmarks/`).  Regenerate
everything with:

```bash
PYTHONPATH=src python -m pytest -q --benchmark-disable benchmarks/
PYTHONPATH=src python -m repro.harness.experiments_md
```

Monte-Carlo rows depend on the trial budget (`REPRO_TRIALS`, default
100000) and frozen seeds; see README.md for the RNG-stream guarantees.
This file is generated — edit `repro/harness/experiments_md.py`, not
the text below.
"""


def _section(experiment_id: str) -> str:
    experiment = REGISTRY[experiment_id]
    lines = [
        f"## `{experiment_id}` — {experiment.paper_ref}",
        "",
        experiment.description + ".",
        "",
    ]
    results_file = RESULTS_DIR / f"{experiment_id}.txt"
    if results_file.exists():
        lines += ["```text", results_file.read_text().rstrip("\n"), "```", ""]
    else:  # pragma: no cover - requires a results dir out of sync
        lines += ["*(no results table recorded yet — run the bench below)*", ""]
    lines += [
        "Regenerate: "
        f"`PYTHONPATH=src python -m repro.harness.experiments_md --run {experiment_id}`",
        "",
    ]
    return "\n".join(lines)


def render_record() -> str:
    """The full EXPERIMENTS.md text from the registry + results dir."""
    sections = [_section(experiment_id) for experiment_id in REGISTRY]
    return PREAMBLE + "\n" + "\n".join(sections)


def recorded_ids(text: str) -> list[str]:
    """Experiment ids of the ``## `id` — ...`` sections in the record."""
    return [
        match.group("experiment_id")
        for line in text.splitlines()
        if (match := _HEADING.match(line))
    ]


def write_record() -> Path:
    """Rewrite EXPERIMENTS.md from the current registry and results."""
    RECORD_PATH.write_text(render_record())
    return RECORD_PATH


def format_result(result: ExperimentResult) -> str:
    """The canonical results-table text for one experiment run."""
    text = paper_vs_measured(
        result.rows, title=f"{result.experiment_id} — {result.paper_ref}"
    )
    if result.notes:
        text += f"\n\nNotes: {result.notes}"
    return text


def write_result(result: ExperimentResult) -> str:
    """Write the canonical results table under ``benchmarks/results/``.

    Single formatter for both the bench suite and ``--run``, so the
    two writers can never drift apart.
    """
    text = format_result(result)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{result.experiment_id}.txt").write_text(text + "\n")
    return text


def run_and_record(experiment_id: str) -> bool:
    """Re-run one experiment, refresh its results table and the record.

    Returns True when every comparison row matched.
    """
    result = run_experiment(experiment_id)
    text = write_result(result)
    write_record()
    print(text)
    return result.all_match


def check_record() -> int:
    """CI docs-consistency gate; returns a process exit code.

    Re-runs the full registry (at whatever ``REPRO_TRIALS`` the caller
    set), then compares the section names in EXPERIMENTS.md against the
    registry ids.
    """
    for experiment_id in REGISTRY:
        result = run_experiment(experiment_id)
        status = "ok" if result.all_match else "MISMATCH"
        print(f"ran {experiment_id}: {len(result.rows)} rows, {status}")
    if not RECORD_PATH.exists():
        print("EXPERIMENTS.md is missing — regenerate it with "
              "`python -m repro.harness.experiments_md`")
        return 1
    recorded = recorded_ids(RECORD_PATH.read_text())
    expected = list(REGISTRY)
    if recorded != expected:
        missing = sorted(set(expected) - set(recorded))
        stale = sorted(set(recorded) - set(expected))
        print("EXPERIMENTS.md sections drifted from the experiment registry:")
        if missing:
            print(f"  missing sections: {missing}")
        if stale:
            print(f"  stale sections: {stale}")
        if not missing and not stale:
            print(f"  section order differs: {recorded} != {expected}")
        print("regenerate with `python -m repro.harness.experiments_md`")
        return 1
    print(f"EXPERIMENTS.md is in sync ({len(recorded)} sections)")
    return 0


def main(argv: list[str]) -> int:
    if argv and argv[0] == "--check":
        return check_record()
    if argv and argv[0] == "--run":
        if len(argv) != 2:
            print("usage: python -m repro.harness.experiments_md --run <id>")
            return 2
        return 0 if run_and_record(argv[1]) else 1
    if argv:
        print("usage: python -m repro.harness.experiments_md [--check | --run <id>]")
        return 2
    path = write_record()
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
