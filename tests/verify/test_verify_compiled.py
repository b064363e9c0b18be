"""The symbolic compiled-program verifier on honest artifacts.

Every corpus circuit, compiled under both fusion modes, must verify
clean — this is the static half of the claim the conformance suite
samples dynamically, and it covers every library gate's lowering and
the recovery cycle's stacked fused slots.
"""

from __future__ import annotations

import pytest

from repro.core.circuit import Circuit
from repro.core.compiled import CompiledCircuit
from repro.verify.corpus import corpus
from repro.verify.program import verify_compiled

CORPUS = corpus()


@pytest.mark.parametrize("fuse", [True, False], ids=["fused", "unfused"])
@pytest.mark.parametrize(
    "label", [label for label, _ in CORPUS]
)
def test_corpus_compiles_verify_clean(label, fuse):
    circuit = dict(CORPUS)[label]
    compiled = CompiledCircuit(circuit, fuse=fuse)
    report = verify_compiled(circuit, compiled)
    assert report.ok, report.render()


def test_reset_heavy_circuit_verifies():
    circuit = (
        Circuit(4)
        .append_reset(0)
        .append_reset(1, value=1)
        .cnot(2, 3)
        .append_reset(2, value=1)
    )
    report = verify_compiled(circuit, CompiledCircuit(circuit, fuse=True))
    assert report.ok, report.render()


def test_wire_count_mismatch_is_rv200():
    circuit = Circuit(2).cnot(0, 1)
    other = CompiledCircuit(Circuit(3).cnot(0, 1), fuse=True)
    report = verify_compiled(circuit, other)
    assert report.has("RV200")


def test_broken_circuit_short_circuits_program_checks():
    # An ill-formed circuit stops verification before the program
    # layers — the symbolic reference would be meaningless.
    circuit = Circuit(2).cnot(0, 1)
    circuit._ops.extend(Circuit(2).cnot(1, 0)._ops)
    forged = circuit._ops[0]
    object.__setattr__(forged, "wires", (0, 9))
    report = verify_compiled(circuit)
    assert report.has("RV010")
    assert not any(code.startswith("RV2") for code in report.codes())
