"""Tests for the NAND entropy-cost search (Section 4, footnote 4)."""

from __future__ import annotations

import pytest

from repro.analysis.nand_cost import (
    OPTIMAL_NAND_ENTROPY,
    min_nand_cost,
    nand_realisations,
    search_all_gates,
)
from repro.core import library
from repro.core.gate import Gate
from repro.errors import AnalysisError


class TestKnownGates:
    def test_maj_inv_achieves_three_halves(self):
        assert min_nand_cost(library.MAJ_INV) == OPTIMAL_NAND_ENTROPY == 1.5

    def test_maj_inv_realisation_details(self):
        best = min(
            nand_realisations(library.MAJ_INV), key=lambda r: r.entropy_cost
        )
        # The constant-1 ancilla enters on wire 0 and NAND comes out on
        # wire 0 (the majority wire of MAJ, inverted construction).
        assert best.ancilla_value == 1
        assert best.entropy_cost == 1.5

    def test_toffoli_costs_two_bits(self):
        assert min_nand_cost(library.TOFFOLI) == 2.0

    def test_toffoli_realisation_is_the_textbook_one(self):
        costs = nand_realisations(library.TOFFOLI)
        textbook = [
            r
            for r in costs
            if r.ancilla_wire == 2 and r.ancilla_value == 1 and r.output_wire == 2
        ]
        assert len(textbook) == 1
        assert textbook[0].entropy_cost == 2.0

    def test_swap_cannot_compute_nand(self):
        assert min_nand_cost(library.SWAP3_UP) is None

    def test_maj_also_computes_nand(self):
        # MAJ(a, b, 0) computes AND into the majority wire; with the
        # right wiring NAND is also reachable via MAJ — at a higher
        # entropy price than MAJ⁻¹.
        cost = min_nand_cost(library.MAJ)
        assert cost is None or cost >= 1.5


class TestSearch:
    def test_global_optimum_is_three_halves(self):
        result = search_all_gates()
        assert result.minimum_entropy == pytest.approx(1.5)
        assert result.total_gates_searched == 40320
        assert result.achieving_gates > 0

    def test_search_counts_are_pinned(self):
        # The exhaustive scan's full census: every gate, the optimum,
        # how many gates reach it and how many NAND wirings exist.
        result = search_all_gates()
        assert result.total_gates_searched == 40320
        assert result.minimum_entropy == 1.5
        assert result.achieving_gates == 22050
        assert result.total_realisations == 41472

    def test_information_theoretic_floor(self):
        """No realisation anywhere beats 1.5 bits.

        The floor argument: the three inputs with NAND output 1 need
        distinct discard pairs, so the best distribution is
        (1/2, 1/4, 1/4) with entropy 3/2.
        """
        result = search_all_gates()
        assert result.minimum_entropy >= 1.5 - 1e-12


class TestValidation:
    def test_arity_checked(self):
        with pytest.raises(AnalysisError):
            nand_realisations(library.CNOT)

    def test_costs_are_well_formed(self):
        for realisation in nand_realisations(library.MAJ_INV):
            assert 0.0 <= realisation.entropy_cost <= 2.0
            assert realisation.ancilla_wire in (0, 1, 2)
            assert realisation.output_wire in (0, 1, 2)

    def test_identity_gate_has_trivial_nand_none(self):
        identity = Gate(name="i", arity=3, table=tuple(range(8)))
        assert min_nand_cost(identity) is None
