"""Codebase lint passes — the ``RL###`` half of :mod:`repro.verify`.

Four AST passes over the repository, run through the unified
driver ``python -m tools.lint`` (which owns the CLI and the exit-code
contract):

* :mod:`~repro.verify.codelint.rng` — RNG/clock purity outside the
  noise layer, iteration-order hazards inside key functions
  (``RL100``, ``RL110``–``RL112``);
* :mod:`~repro.verify.codelint.layering` — the import-layering DAG
  with its documented deferred-import allowlist (``RL200``–``RL202``);
* :mod:`~repro.verify.codelint.errors_pass` — typed-exception
  discipline and assert hygiene (``RL300``–``RL301``);
* :mod:`~repro.verify.codelint.timing` — raw ``time.*`` calls outside
  the ``repro.obs`` clock front door (``RL500``).

All policy data (layer table, allowlists, key-function set) lives in
:mod:`~repro.verify.codelint.config`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path

from repro.errors import VerificationError
from repro.verify.codelint import errors_pass, layering, rng, timing
from repro.verify.diagnostics import DiagnosticReport

__all__ = [
    "PASSES",
    "SourceFile",
    "load_source_files",
    "run_codebase_lints",
]


@dataclass(frozen=True)
class SourceFile:
    """One parsed Python source under the linted tree."""

    path: Path  #: absolute path
    relpath: str  #: posix path relative to the repo root
    text: str
    tree: ast.Module


def load_source_files(root: Path) -> list[SourceFile]:
    """Parse every ``*.py`` under ``root/src/repro``, in sorted order.

    A file that does not parse raises
    :class:`~repro.errors.VerificationError` — the lint driver maps
    that to its driver-failure exit code (the tree cannot even import,
    which is not a lint finding).
    """
    base = Path(root) / "src" / "repro"
    files: list[SourceFile] = []
    for path in sorted(base.rglob("*.py")):
        relpath = path.relative_to(root).as_posix()
        text = path.read_text()
        try:
            tree = ast.parse(text, filename=str(path))
        except SyntaxError as exc:
            raise VerificationError(
                f"{relpath} does not parse: {exc}"
            ) from exc
        files.append(SourceFile(path, relpath, text, tree))
    return files


#: The registered passes: ``name -> (codes, runner)``.  Every runner
#: has the uniform signature ``run(root, files, report)``.
PASSES: dict[str, tuple[tuple[str, ...], object]] = {
    "rng": (("RL100", "RL110", "RL111", "RL112"), rng.run),
    "layering": (("RL200", "RL201", "RL202"), layering.run),
    "errors": (("RL300", "RL301"), errors_pass.run),
    "timing": (("RL500",), timing.run),
}


def run_codebase_lints(
    root: Path,
    *,
    passes: list[str] | None = None,
) -> DiagnosticReport:
    """Run the selected lint passes (default: all) over a repo root."""
    report = DiagnosticReport()
    selected = list(PASSES) if passes is None else passes
    unknown = [name for name in selected if name not in PASSES]
    if unknown:
        raise VerificationError(f"unknown lint pass(es): {unknown}")
    files = load_source_files(root)
    for name in selected:
        _codes, runner = PASSES[name]
        runner(root, files, report)
    return report
