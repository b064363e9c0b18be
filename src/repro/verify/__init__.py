"""Static verification: the symbolic IR verifier and the codebase lints.

Two halves share one structured-diagnostics core
(:mod:`repro.verify.diagnostics`):

* the **symbolic IR verifier** (``RV###`` codes) proves circuits
  well-formed and compiled cascades — the slots the execution
  layer walks — semantically equal to the gate-by-gate reference by
  canonical GF(2)/ANF polynomial equivalence — :func:`verify_circuit`,
  :func:`verify_compiled`, and ``python -m repro.verify`` over the CI
  corpus;
* the **codebase lints** (``RL###`` codes) live in
  :mod:`repro.verify.codelint` and run through ``python -m tools.lint``.
"""

from repro.verify.corpus import corpus
from repro.verify.diagnostics import (
    CODES,
    Diagnostic,
    DiagnosticReport,
    Severity,
)
from repro.verify.ir import check_gate, classify_parity, verify_circuit
from repro.verify.program import verify_compiled

__all__ = [
    "CODES",
    "Diagnostic",
    "DiagnosticReport",
    "Severity",
    "check_gate",
    "classify_parity",
    "corpus",
    "verify_circuit",
    "verify_compiled",
]
