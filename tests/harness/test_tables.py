"""Tests for the table renderer."""

from __future__ import annotations

from repro.harness.tables import format_table, paper_vs_measured


class TestFormatTable:
    def test_headers_and_rows_present(self):
        text = format_table(("a", "b"), [(1, 2), (3, 4)])
        assert "a" in text and "b" in text
        assert "3" in text

    def test_title(self):
        text = format_table(("x",), [(1,)], title="My Table")
        assert text.splitlines()[0] == "My Table"

    def test_float_formatting(self):
        text = format_table(("v",), [(0.123456789,), (12345.678,)])
        assert "0.1235" in text and "1.235e+04" in text

    def test_bool_rendering(self):
        text = format_table(("ok",), [(True,), (False,)])
        assert "yes" in text and "no" in text

    def test_empty_rows(self):
        text = format_table(("only", "headers"), [])
        assert "only" in text

    def test_alignment_consistent(self):
        text = format_table(("col",), [("short",), ("a-much-longer-cell",)])
        lines = text.splitlines()
        assert len(lines[-1]) >= len("a-much-longer-cell")


class TestPaperVsMeasured:
    def test_standard_columns(self):
        text = paper_vs_measured([("rho", 108, 108, True)])
        assert "quantity" in text
        assert "paper" in text
        assert "measured" in text
        assert "yes" in text
