"""Tests for the ASCII circuit renderer."""

from __future__ import annotations

import pytest

from repro.coding import recovery_circuit
from repro.core.circuit import Circuit
from repro.core.draw import draw
from repro.errors import CircuitError, ReproError


class TestDraw:
    def test_figure_1_symbols(self):
        circuit = Circuit(3).cnot(0, 1).cnot(0, 2).toffoli(1, 2, 0)
        art = draw(circuit)
        lines = art.splitlines()
        assert len(lines) == 3
        assert "●" in art and "⊕" in art

    def test_line_count_matches_wires(self):
        art = draw(Circuit(5).x(0))
        assert len(art.splitlines()) == 5

    def test_custom_labels(self):
        art = draw(Circuit(2).swap(0, 1), labels=["top", "bot"])
        assert art.splitlines()[0].startswith("top")
        assert "×" in art

    def test_label_count_validated(self):
        # Regression: draw() used to leak a bare ValueError here; the
        # core layer's contract is CircuitError (under ReproError, so
        # callers can catch library failures uniformly).
        with pytest.raises(CircuitError, match="1 labels for 2 wires"):
            draw(Circuit(2), labels=["only-one"])
        with pytest.raises(ReproError):
            draw(Circuit(2), labels=["a", "b", "c"])

    def test_named_gate_box(self):
        art = draw(Circuit(3).maj(0, 1, 2))
        assert "[MAJ]" in art

    def test_fredkin_symbols(self):
        # Control dot on the control wire, swap crosses on the targets.
        from repro.core import library

        art = draw(Circuit(3).append_gate(library.FREDKIN, 0, 1, 2))
        top, middle, bottom = art.splitlines()
        assert "●" in top
        assert "×" in middle and "×" in bottom

    def test_reset_marker(self):
        art = draw(Circuit(1).append_reset(0))
        assert "|0>" in art

    def test_recovery_circuit_renders(self):
        # The full Figure-2 circuit draws without error and shows both
        # phases.
        art = draw(recovery_circuit())
        assert "[MAJ⁻¹]" in art
        assert "[MAJ]" in art
        assert len(art.splitlines()) == 9

    def test_connector_passes_through_middle_wires(self):
        art = draw(Circuit(3).cnot(0, 2))
        middle = art.splitlines()[1]
        assert "│" in middle
