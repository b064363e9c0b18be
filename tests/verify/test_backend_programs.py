"""Symbolic verification of the backend's prepared program.

The conformance suite samples the backend dynamically; this suite
proves the *artifact that executes* — ``get_backend().prepare`` hands
the noise layer the compiled circuit itself, whose slots
``verify_compiled`` proves equal to the circuit's gate tables (RV300).
"""

from __future__ import annotations

import pytest

from repro.backends import get_backend
from repro.core.compiled import CompiledCircuit
from repro.verify.corpus import corpus
from repro.verify.program import verify_compiled

CORPUS = corpus()


@pytest.mark.parametrize("backend_id", ["numpy"])
@pytest.mark.parametrize("label", [label for label, _ in CORPUS])
def test_every_backend_prepares_verifiably(label, backend_id):
    circuit = dict(CORPUS)[label]
    compiled = CompiledCircuit(circuit, fuse=True)
    prepared = get_backend(backend_id).prepare(compiled)
    assert prepared is compiled
    report = verify_compiled(circuit, prepared)
    assert report.ok, report.render()
