"""Import-layering enforcement: the acyclic DAG, held closed by tooling.

``RL200`` — a module-level import of a package on the same or a higher
layer (see :data:`~repro.verify.codelint.config.LAYERS`): the layering
errors → core → coding/local/analysis → backends → noise → runtime →
baselines/synth → harness → jobs → report/verify only points downward.

``RL201`` — a *deferred* (function-local) upward import that is not on
the documented allowlist.  Deferred imports are the sanctioned escape
hatch for genuine cycles (the allowlist is empty today), but each one
must be argued into
:data:`~repro.verify.codelint.config.DEFERRED_ALLOWLIST` in review —
otherwise the DAG erodes one convenient import at a time.

``RL202`` — a module that does not map into the layer table at all
(a new top-level package added without declaring its layer).

Imports inside ``if TYPE_CHECKING:`` blocks are exempt: they never
execute, so they create no runtime edge (they exist precisely to break
runtime cycles for the type checker).
"""

from __future__ import annotations

import ast

from repro.verify.codelint.config import DEFERRED_ALLOWLIST, LAYERS
from repro.verify.diagnostics import DiagnosticReport

__all__ = ["module_segment", "run"]


def module_segment(relpath: str) -> str | None:
    """The layer-table key for a file, or ``None`` for the root surface.

    ``src/repro/core/compiled.py`` → ``core``;
    ``src/repro/report.py`` → ``report``;
    ``src/repro/__init__.py``/``src/repro/py.typed`` → ``None`` (the
    root package, exempt from layering).
    """
    parts = relpath.split("/")
    try:
        anchor = parts.index("repro")
    except ValueError:
        return None
    tail = parts[anchor + 1 :]
    if not tail or tail == ["__init__.py"]:
        return None
    head = tail[0]
    if head.endswith(".py"):
        head = head[: -len(".py")]
    return head


def _is_type_checking_test(test: ast.expr) -> bool:
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    if isinstance(test, ast.Attribute):
        return test.attr == "TYPE_CHECKING"
    return False


def _collect_imports(tree: ast.Module):
    """``(node, deferred)`` for every import, skipping TYPE_CHECKING."""

    def walk(nodes, deferred: bool):
        for node in nodes:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                yield node, deferred
            elif isinstance(node, ast.If) and _is_type_checking_test(node.test):
                # The body never runs outside the type checker; the
                # else-branch is ordinary runtime code.
                yield from walk(node.orelse, deferred)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from walk(node.body, True)
            else:
                children = []
                for name in node._fields:
                    value = getattr(node, name, None)
                    if isinstance(value, list):
                        children.extend(
                            v for v in value if isinstance(v, ast.stmt)
                        )
                if children:
                    yield from walk(children, deferred)

    yield from walk(tree.body, False)


def _import_targets(node) -> list[str]:
    """Top-level ``repro`` segments an import statement touches."""
    targets = []
    if isinstance(node, ast.Import):
        for name in node.names:
            parts = name.name.split(".")
            if parts[0] == "repro" and len(parts) > 1:
                targets.append(parts[1])
    elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
        parts = node.module.split(".")
        if parts[0] == "repro":
            if len(parts) > 1:
                targets.append(parts[1])
            else:
                # ``from repro import X`` touches only the root surface.
                targets.extend(
                    name.name
                    for name in node.names
                    if name.name in LAYERS
                )
    return targets


def run(root, files, report: DiagnosticReport) -> None:
    """The layering pass over ``files``."""
    for source in files:
        if source.tree is None:
            continue
        own = module_segment(source.relpath)
        if own is None:
            continue  # the root package
        own_layer = LAYERS.get(own)
        if own_layer is None:
            report.error(
                "RL202",
                source.relpath,
                f"package {own!r} is not in the layer table — declare its "
                f"layer in repro.verify.codelint.config.LAYERS",
            )
            continue
        for node, deferred in _collect_imports(source.tree):
            for target in _import_targets(node):
                if target == own:
                    continue
                target_layer = LAYERS.get(target)
                where = f"{source.relpath}:{node.lineno}"
                if target_layer is None:
                    report.error(
                        "RL202",
                        where,
                        f"import of unknown package repro.{target}",
                    )
                    continue
                if target_layer < own_layer:
                    continue
                if not deferred:
                    report.error(
                        "RL200",
                        where,
                        f"module-level import of repro.{target} (layer "
                        f"{target_layer}) from {own} (layer {own_layer}) "
                        f"breaks the layering DAG",
                    )
                elif (source.relpath, target) not in DEFERRED_ALLOWLIST:
                    report.error(
                        "RL201",
                        where,
                        f"deferred upward import of repro.{target} from "
                        f"{own} is not on the documented allowlist",
                    )
