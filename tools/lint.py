#!/usr/bin/env python
"""The unified lint driver: ``python -m tools.lint``.

Runs every codebase lint pass of :mod:`repro.verify.codelint` (RNG
purity, key-function determinism, import layering, error discipline,
the timing front door) over the repository and reports structured
diagnostics.  Exit-code contract (shared with ``python -m
repro.verify``): 0 clean, 1 when any error-severity diagnostic fired,
2 when the driver itself failed (unknown pass, unparseable tree).

Usage::

    PYTHONPATH=src python -m tools.lint            # whole repo, all passes
    python tools/lint.py --json                    # machine-readable
    python tools/lint.py --select layering         # one pass
    python tools/lint.py --root /path/to/tree      # another checkout
    python tools/lint.py --list-codes              # the code registry
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]

# Keep the script runnable both as ``python -m tools.lint`` (CI sets
# PYTHONPATH=src) and as a bare ``python tools/lint.py``.
if str(REPO_ROOT / "src") not in sys.path:  # pragma: no cover - path setup
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.errors import VerificationError  # noqa: E402
from repro.verify.codelint import PASSES, run_codebase_lints  # noqa: E402
from repro.verify.diagnostics import (  # noqa: E402
    CODES,
    EXIT_DRIVER_ERROR,
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m tools.lint",
        description="Unified codebase lints (RL### diagnostics).",
    )
    parser.add_argument(
        "--root",
        type=Path,
        default=REPO_ROOT,
        help="repository root to lint (default: this checkout)",
    )
    parser.add_argument(
        "--select",
        action="append",
        default=None,
        metavar="PASS",
        help=f"run only the named pass(es); known: {', '.join(PASSES)}",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit the machine-readable report"
    )
    parser.add_argument(
        "--list-codes",
        action="store_true",
        help="print the registered diagnostic codes and exit",
    )
    arguments = parser.parse_args(argv)

    if arguments.list_codes:
        for code in sorted(CODES):
            print(f"{code}  {CODES[code]}")
        return 0

    try:
        report = run_codebase_lints(arguments.root, passes=arguments.select)
    except VerificationError as exc:
        print(f"driver error: {exc}", file=sys.stderr)
        return EXIT_DRIVER_ERROR

    if arguments.json:
        print(report.render_json())
    else:
        for diagnostic in report.diagnostics:
            print(diagnostic)
        passes = arguments.select or list(PASSES)
        status = "clean" if report.ok else f"{len(report.errors)} finding(s)"
        print(f"lint [{', '.join(passes)}] over {arguments.root}: {status}")
    return report.exit_code()


if __name__ == "__main__":
    sys.exit(main())
