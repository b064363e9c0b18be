"""The structured-diagnostics core shared by both verifier halves.

Every finding of the symbolic IR verifier (``RV###`` codes) and the
codebase lint passes (``RL###`` codes) is a :class:`Diagnostic`: a
stable machine-readable code, a severity, a human-locatable position
(``file.py:12`` for lint, ``circuit 'EL' slot 3`` for IR), and a
message.  Codes are registered centrally in :data:`CODES` so that a
diagnostic can never be emitted under an unknown or retired code — CI
scripts and the mutation-kill suite match on codes, which makes the
registry part of the public contract.

Exit-code contract (shared by ``python -m tools.lint`` and
``python -m repro.verify``): **0** when no error-severity diagnostics
were produced, **1** when at least one was, **2** for driver/config
failures (unknown code selected, unreadable root) — the same convention
as compilers, so CI can distinguish "found violations" from "the tool
itself broke".
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field

from repro.errors import VerificationError

__all__ = [
    "CODES",
    "Diagnostic",
    "DiagnosticReport",
    "EXIT_CLEAN",
    "EXIT_DRIVER_ERROR",
    "EXIT_FINDINGS",
    "Severity",
]

#: Exit codes of the verification/lint entry points.
EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_DRIVER_ERROR = 2


class Severity(enum.Enum):
    """How much a diagnostic matters to the exit code."""

    ERROR = "error"  #: a violation; makes the run fail (exit 1)
    WARNING = "warning"  #: suspicious but not failing
    NOTE = "note"  #: informational (e.g. parity classification)


#: The registry of stable diagnostic codes.  ``RV###`` codes belong to
#: the symbolic IR verifier, ``RL###`` codes to the codebase lints.
#: Codes are append-only: retiring one means keeping the entry with a
#: "(retired)" description, never reusing the number.
CODES: dict[str, str] = {
    # --- IR verifier: gate tables -------------------------------------
    "RV001": "gate table is not a bijection on its pattern space",
    "RV002": "gate table has the wrong number of entries for its arity",
    "RV003": "gate arity is invalid (< 1)",
    # --- IR verifier: circuit well-formedness -------------------------
    "RV010": "operation wire index out of range for the circuit",
    "RV011": "operation touches the same wire more than once",
    "RV012": "gate arity does not match the operation's wire count",
    "RV013": "reset discipline violation (bad value or gate/reset mix-up)",
    # --- IR verifier: classification notes ----------------------------
    "RV020": "parity classification of a gate table",
    # --- IR verifier: lowering ----------------------------------------
    "RV100": "lowered cascade does not compose to the gate table's ANF",
    "RV101": "lowered cascade is structurally uninterpretable",
    # --- IR verifier: fusion legality ---------------------------------
    "RV200": "fused slot ops do not reconcile with the circuit's ops",
    "RV201": "slot mixes gate and reset error classes",
    "RV202": "ops within one fused slot touch overlapping wires",
    "RV203": "(retired) slot class_offset disagrees with the recounted ops",
    "RV204": "(retired) op_group/op_row bookkeeping is inconsistent",
    "RV205": "slot group rows or cascade do not match its run ops",
    "RV206": "stacked wire-matrix index out of wire bounds",
    "RV207": "row_slices is not one slice view per wire-matrix column",
    "RV208": "reset partition disagrees with the slot's reset ops",
    "RV209": "slot runs do not tile its ops group by group in op order",
    # --- IR verifier: semantic equivalence ----------------------------
    "RV300": "slot transfer function differs from the sequential ops",
    # --- IR verifier: prepared programs (RV300 proves the slot walk) --
    "RV400": "(retired) prepared program type has no registered verifier",
    "RV401": "(retired) backend kernel plan computes a different function",
    "RV402": "(retired) backend kernel plan is uninterpretable",
    # --- Lints: RNG / determinism purity ------------------------------
    "RL100": "randomness or wall-clock call outside the noise layer",
    "RL110": "set iteration inside a key/hash computation",
    "RL111": "unsorted dict iteration inside a key/hash computation",
    "RL112": "json.dumps without sort_keys inside a key/hash computation",
    # --- Lints: import layering ---------------------------------------
    "RL200": "import breaks the layering DAG (upward or cross-layer)",
    "RL201": "deferred upward import not on the documented allowlist",
    "RL202": "module outside the known layer map",
    # --- Lints: error discipline --------------------------------------
    "RL300": "bare builtin exception raised instead of a repro.errors type",
    "RL301": "assert used for validation (only is-not-None narrowing allowed)",
    # --- Lints: deprecation audit (the shims it guarded are gone) -----
    "RL400": "(retired) reference to a deprecated entry point",
    # --- Lints: timing front door -------------------------------------
    "RL500": "raw time.* call outside the repro.obs clock front door",
}


@dataclass(frozen=True)
class Diagnostic:
    """One finding: stable code, severity, location, message."""

    code: str
    severity: Severity
    location: str
    message: str

    def __post_init__(self) -> None:
        if self.code not in CODES:
            raise VerificationError(
                f"diagnostic code {self.code!r} is not registered in "
                f"repro.verify.diagnostics.CODES"
            )

    def to_json(self) -> dict:
        """The machine-readable wire form."""
        return {
            "code": self.code,
            "severity": self.severity.value,
            "location": self.location,
            "message": self.message,
        }

    def __str__(self) -> str:
        return (
            f"{self.location}: {self.severity.value}: "
            f"{self.code}: {self.message}"
        )


@dataclass
class DiagnosticReport:
    """An ordered collection of diagnostics with the exit-code contract."""

    diagnostics: list[Diagnostic] = field(default_factory=list)

    def add(
        self,
        code: str,
        severity: Severity,
        location: str,
        message: str,
    ) -> Diagnostic:
        """Append one diagnostic (validating its code) and return it."""
        diagnostic = Diagnostic(code, severity, location, message)
        self.diagnostics.append(diagnostic)
        return diagnostic

    def error(self, code: str, location: str, message: str) -> Diagnostic:
        """Shorthand for :meth:`add` at error severity."""
        return self.add(code, Severity.ERROR, location, message)

    def note(self, code: str, location: str, message: str) -> Diagnostic:
        """Shorthand for :meth:`add` at note severity."""
        return self.add(code, Severity.NOTE, location, message)

    def extend(self, other: "DiagnosticReport") -> "DiagnosticReport":
        """Fold another report's diagnostics into this one."""
        self.diagnostics.extend(other.diagnostics)
        return self

    @property
    def errors(self) -> list[Diagnostic]:
        """The error-severity findings."""
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]

    @property
    def ok(self) -> bool:
        """True when no error-severity diagnostic was produced."""
        return not self.errors

    def codes(self) -> list[str]:
        """The codes emitted, in order (convenience for tests)."""
        return [d.code for d in self.diagnostics]

    def has(self, code: str) -> bool:
        """Whether any diagnostic carries ``code``."""
        return any(d.code == code for d in self.diagnostics)

    def exit_code(self) -> int:
        """0 when clean, 1 when any error-severity finding exists."""
        return EXIT_CLEAN if self.ok else EXIT_FINDINGS

    def to_json(self) -> dict:
        """The machine-readable report: counts plus every diagnostic."""
        return {
            "ok": self.ok,
            "errors": len(self.errors),
            "total": len(self.diagnostics),
            "diagnostics": [d.to_json() for d in self.diagnostics],
        }

    def render(self) -> str:
        """Human-readable one-line-per-diagnostic rendering."""
        return "\n".join(str(d) for d in self.diagnostics)

    def render_json(self) -> str:
        """The JSON rendering with deterministic key order."""
        return json.dumps(self.to_json(), sort_keys=True, indent=2)
