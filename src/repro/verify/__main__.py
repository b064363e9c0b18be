"""``python -m repro.verify`` — the CI symbolic-verification entry point.

Runs the full IR verification stack over the circuit corpus
(:mod:`repro.verify.corpus`): well-formedness and parity classification
per circuit and compiled-program equivalence under both fusion modes —
``RV300`` proves each slot the execution layer walks.  No simulation
happens anywhere in this process.

Exit codes follow the shared contract of
:mod:`repro.verify.diagnostics`: 0 clean, 1 when any error-severity
diagnostic fired, 2 for driver failures.
"""

from __future__ import annotations

import argparse
import sys

from repro.core.compiled import compile_circuit
from repro.verify.corpus import corpus
from repro.verify.diagnostics import DiagnosticReport, Severity
from repro.verify.ir import verify_circuit
from repro.verify.program import verify_compiled


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.verify",
        description="Symbolically verify the circuit corpus (no simulation).",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit the machine-readable report"
    )
    parser.add_argument(
        "--notes",
        action="store_true",
        help="include RV020 parity-classification notes in the text output",
    )
    arguments = parser.parse_args(argv)

    report = DiagnosticReport()
    checked = 0
    for _name, circuit in corpus():
        well_formed = DiagnosticReport()
        verify_circuit(circuit, report=well_formed)
        report.extend(well_formed)
        if not well_formed.ok:
            continue
        for fuse in (True, False):
            compiled = compile_circuit(circuit, fuse=fuse)
            verify_compiled(
                circuit, compiled, report=report, check_circuit=False
            )
        checked += 1

    if arguments.json:
        print(report.render_json())
    else:
        for diagnostic in report.diagnostics:
            if diagnostic.severity is Severity.NOTE and not arguments.notes:
                continue
            print(diagnostic)
        status = "clean" if report.ok else f"{len(report.errors)} error(s)"
        print(
            f"verified {checked} corpus circuits under both fusion modes: "
            f"{status}"
        )
    return report.exit_code()


if __name__ == "__main__":
    sys.exit(main())
