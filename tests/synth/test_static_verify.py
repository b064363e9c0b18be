"""The rewrite-verification contract: no database splice on faith."""

from __future__ import annotations

import pytest

from repro.core import library
from repro.core.circuit import Circuit
from repro.core.truth_table import circuit_permutation
from repro.errors import SynthesisError
from repro.synth.database import IdentityDatabase
from repro.synth.peephole import optimize_report


def database() -> IdentityDatabase:
    db = IdentityDatabase(3)
    db.mine(
        (library.CNOT, library.TOFFOLI, library.MAJ, library.MAJ_INV),
        max_gates=2,
    )
    return db


class LyingDatabase(IdentityDatabase):
    """Answers every lookup with a one-gate circuit of the wrong action."""

    def best(self, action):
        return Circuit(self.n_wires).x(0)


class TestVerifyRewrite:
    def test_wrong_action_replacement_is_refused(self):
        # The database verifies its members on entry, but the optimiser
        # re-proves every splice by exhaustion: a replacement whose
        # action differs from the window's must raise, never splice.
        circuit = Circuit(3).cnot(0, 1).toffoli(0, 1, 2)
        with pytest.raises(SynthesisError, match="failed equivalence"):
            optimize_report(circuit, database=LyingDatabase(3))


class TestOptimizeStillSound:
    def test_database_rewrites_keep_their_action(self):
        # End-to-end through the real optimizer: a redundant pair plus
        # a rewritable window must come out equivalent and verified.
        circuit = Circuit(3).cnot(0, 1).cnot(0, 1).toffoli(0, 1, 2)
        report = optimize_report(circuit, database=database())
        assert (
            circuit_permutation(report.circuit).mapping
            == circuit_permutation(circuit).mapping
        )
        assert report.verified_rewrites == (
            report.cancellations
            + report.identity_removals
            + report.database_rewrites
        )
