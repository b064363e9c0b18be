"""Run every registered experiment; print, check or rewrite EXPERIMENTS.md.

Usage::

    python -m repro.report            # print every paper-vs-measured table
    python -m repro.report --check    # fail unless EXPERIMENTS.md matches
    python -m repro.report --write    # rewrite EXPERIMENTS.md's sections

Each mode runs the registry once, at the trial budget ``REPRO_TRIALS``
sets (default 100000), and fails when an experiment misses the paper.
EXPERIMENTS.md records the default budget's tables; at a smaller budget
the Monte-Carlo rows differ.  ``--check`` also fails when the record's
sections are not the registry ids in order, or when a fresh table
differs from its recorded block.  ``--write`` regenerates the sections
and carries the record's hand-kept preamble and closing ``# Ablations``
part over byte for byte; the ablation tests compare their tables with
that part.
"""

from __future__ import annotations

import re
import sys
from collections.abc import Sequence
from pathlib import Path

from repro.harness.experiments import REGISTRY, ExperimentResult, run_experiment
from repro.harness.tables import paper_vs_measured
from repro.obs.tracing import stopwatch

#: The published record (this file lives at src/repro/).
RECORD_PATH = Path(__file__).resolve().parents[2] / "EXPERIMENTS.md"

#: The line that opens the record's hand-kept closing part.
ABLATIONS_HEADING = "# Ablations"

REGENERATE = "PYTHONPATH=src python -m repro.report --write"

_HEADING = re.compile(r"^## `(?P<table_id>[^`]+)`")


def format_result(result: ExperimentResult) -> str:
    """The recorded table text for one experiment run."""
    text = paper_vs_measured(
        result.rows, title=f"{result.experiment_id} — {result.paper_ref}"
    )
    if result.notes:
        text += f"\n\nNotes: {result.notes}"
    return text


def split_record(text: str) -> tuple[str, str, str]:
    """The record's preamble, generated sections and Ablations part."""
    body, heading, rest = text.partition(f"\n{ABLATIONS_HEADING}\n")
    first = re.search("^## `", body, re.MULTILINE)
    start = first.start() if first else len(body)
    return body[:start], body[start:], heading.lstrip("\n") + rest


def render_sections(tables: dict[str, str]) -> str:
    """One ``## `id` — ref`` section per registry id, with its table."""
    return "\n".join(
        f"## `{experiment_id}` — {experiment.paper_ref}\n\n"
        f"{experiment.description}.\n\n```text\n{tables[experiment_id]}\n```\n"
        for experiment_id, experiment in REGISTRY.items()
    )


def recorded_tables(text: str) -> dict[str, str]:
    """The ```text block under each ``## `id` `` heading, by id, in order."""
    tables: dict[str, str] = {}
    current = None
    lines = iter(text.splitlines())
    for line in lines:
        if match := _HEADING.match(line):
            current = match.group("table_id")
        elif line == "```text" and current is not None:
            block = []
            for inner in lines:
                if inner == "```":
                    break
                block.append(inner)
            tables[current] = "\n".join(block)
    return tables


def check_record(tables: dict[str, str]) -> int:
    """Compare fresh tables with EXPERIMENTS.md; returns a process exit code."""
    import difflib

    recorded = recorded_tables(split_record(RECORD_PATH.read_text())[1])
    drifted = []
    for experiment_id, fresh in tables.items():
        block = recorded.get(experiment_id, "")
        if block != fresh:
            drifted.append(experiment_id)
            print(f"{experiment_id}: table differs from EXPERIMENTS.md:")
            diff = difflib.unified_diff(
                block.splitlines(), fresh.splitlines(),
                "EXPERIMENTS.md", "rendered", lineterm="",
            )
            for line in diff:
                print(f"    {line}")
    if list(recorded) != list(tables):
        print("EXPERIMENTS.md sections drifted from the experiment registry:")
        print(f"  recorded: {list(recorded)}\n  registry: {list(tables)}")
        print(f"regenerate with `{REGENERATE}`")
        return 1
    if drifted:
        print(f"{len(drifted)} table(s) differ from EXPERIMENTS.md: {drifted}")
        print(f"refresh them with `{REGENERATE}` at the default trial budget")
        return 1
    print(f"EXPERIMENTS.md is in sync ({len(recorded)} sections and tables)")
    return 0


def write_record(tables: dict[str, str]) -> None:
    """Regenerate EXPERIMENTS.md's sections from ``tables``."""
    preamble, _, ablations = split_record(RECORD_PATH.read_text())
    sections = render_sections(tables)
    RECORD_PATH.write_text(
        preamble + sections + (f"\n{ablations}" if ablations else "")
    )


def main(argv: Sequence[str] = ()) -> int:
    """Run the registry once; print its tables, or check or write the record."""
    mode = list(argv)
    if mode not in ([], ["--check"], ["--write"]):
        print("usage: python -m repro.report [--check | --write]")
        return 2
    if mode and not RECORD_PATH.exists():
        print(f"{RECORD_PATH} is missing; restore it from version control")
        return 1
    failures = 0
    tables = {}
    for experiment_id in REGISTRY:
        watch = stopwatch()
        result = run_experiment(experiment_id)
        status = "PASS" if result.all_match else "FAIL"
        print(f"[{status}] {experiment_id} ({watch.elapsed_s:.1f}s)")
        tables[experiment_id] = format_result(result)
        if not mode:
            print(tables[experiment_id])
            print()
        if not result.all_match:
            failures += 1
    exit_code = 0
    if mode == ["--check"]:
        exit_code = check_record(tables)
    elif mode == ["--write"]:
        write_record(tables)
        print(f"wrote {RECORD_PATH}")
    if failures:
        print(f"{failures} experiment(s) did not match the paper")
        return 1
    if exit_code == 0:
        print(f"all {len(REGISTRY)} experiments match the paper")
    return exit_code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
