"""The structured-diagnostics core shared by verifier and lints."""

from __future__ import annotations

import json

import pytest

from repro.errors import VerificationError
from repro.verify.diagnostics import (
    CODES,
    EXIT_CLEAN,
    EXIT_DRIVER_ERROR,
    EXIT_FINDINGS,
    Diagnostic,
    DiagnosticReport,
    Severity,
)


class TestRegistry:
    def test_codes_are_registered_with_stable_prefixes(self):
        assert CODES
        for code in CODES:
            assert code[:2] in {"RV", "RL"} and code[2:].isdigit()

    def test_unknown_code_rejected(self):
        with pytest.raises(VerificationError):
            Diagnostic(
                code="RV999",
                severity=Severity.ERROR,
                location="x",
                message="nope",
            )


class TestReport:
    def test_empty_report_is_clean(self):
        report = DiagnosticReport()
        assert report.ok
        assert report.exit_code() == EXIT_CLEAN

    def test_error_sets_findings_exit(self):
        report = DiagnosticReport()
        report.error("RV001", "gate:X", "broken table")
        assert not report.ok
        assert report.exit_code() == EXIT_FINDINGS
        assert report.has("RV001")
        assert "RV001" in report.codes()

    def test_notes_do_not_fail(self):
        report = DiagnosticReport()
        report.note("RV020", "gate:SWAP", "parity conserving")
        assert report.ok
        assert report.exit_code() == EXIT_CLEAN
        assert report.errors == []

    def test_json_round_trips(self):
        report = DiagnosticReport()
        report.error("RL300", "src/x.py:3", "bare ValueError")
        payload = json.loads(report.render_json())
        assert payload["ok"] is False
        [entry] = payload["diagnostics"]
        assert entry["code"] == "RL300"
        assert entry["severity"] == "error"
        assert entry["location"] == "src/x.py:3"

    def test_render_mentions_code_and_location(self):
        report = DiagnosticReport()
        report.error("RV010", "circuit:c op 3", "bad wire")
        assert "RV010" in report.render()
        assert "circuit:c op 3" in report.render()

    def test_exit_codes_are_distinct(self):
        assert len({EXIT_CLEAN, EXIT_FINDINGS, EXIT_DRIVER_ERROR}) == 3
