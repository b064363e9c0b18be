"""Tests for the standard gate library against the paper's definitions."""

from __future__ import annotations

import pytest

from repro.core import library
from repro.core.bits import all_bit_vectors, majority
from repro.errors import GateDefinitionError


class TestMajGate:
    def test_truth_table_matches_paper_table_1(self):
        assert library.MAJ.truth_table_rows() == list(library.PAPER_TABLE_1)

    def test_first_output_bit_is_majority(self):
        for bits in all_bit_vectors(3):
            output = library.MAJ.apply(bits)
            assert output[0] == majority(bits)

    def test_caption_definition(self):
        # "Flip the second two bits if the first bit is 1, then flip the
        # first bit if the second two bits are 1."
        for bits in all_bit_vectors(3):
            q0, q1, q2 = bits
            if q0:
                q1 ^= 1
                q2 ^= 1
            if q1 and q2:
                q0 ^= 1
            assert library.MAJ.apply(bits) == (q0, q1, q2)

    def test_maj_is_not_self_inverse(self):
        assert not library.MAJ.is_self_inverse()

    def test_maj_inverse_round_trip(self):
        for bits in all_bit_vectors(3):
            assert library.MAJ_INV.apply(library.MAJ.apply(bits)) == bits

    def test_maj_inv_fans_out_onto_zero_ancillas(self):
        assert library.MAJ_INV.apply((0, 0, 0)) == (0, 0, 0)
        assert library.MAJ_INV.apply((1, 0, 0)) == (1, 1, 1)

    def test_maj_compresses_codewords(self):
        assert library.MAJ.apply((1, 1, 1)) == (1, 0, 0)
        assert library.MAJ.apply((0, 0, 0)) == (0, 0, 0)


class TestClassicGates:
    def test_cnot(self):
        assert library.CNOT.apply((1, 0)) == (1, 1)
        assert library.CNOT.apply((0, 1)) == (0, 1)

    def test_toffoli_only_flips_on_both_controls(self):
        assert library.TOFFOLI.apply((1, 1, 0)) == (1, 1, 1)
        assert library.TOFFOLI.apply((1, 0, 0)) == (1, 0, 0)

    def test_swap(self):
        assert library.SWAP.apply((1, 0)) == (0, 1)

    def test_fredkin_controlled_swap(self):
        assert library.FREDKIN.apply((1, 1, 0)) == (1, 0, 1)
        assert library.FREDKIN.apply((0, 1, 0)) == (0, 1, 0)

    def test_self_inverse_family(self):
        for gate in (library.X, library.CNOT, library.TOFFOLI, library.SWAP, library.FREDKIN):
            assert gate.is_self_inverse(), gate.name


class TestSwap3:
    def test_down_rotation(self):
        assert library.SWAP3_DOWN.apply((1, 0, 0)) == (0, 0, 1)

    def test_up_rotation(self):
        assert library.SWAP3_UP.apply((1, 0, 0)) == (0, 1, 0)

    def test_rotations_are_mutually_inverse(self):
        assert library.SWAP3_UP.inverse().same_action(library.SWAP3_DOWN)

    def test_three_applications_is_identity(self):
        table = library.SWAP3_UP.table
        assert all(table[table[table[i]]] == i for i in range(len(table)))


class TestRegistry:
    def test_lookup(self):
        assert library.get("MAJ") is library.MAJ

    def test_unknown_name(self):
        with pytest.raises(GateDefinitionError):
            library.get("NOPE")

    def test_registry_names_consistent(self):
        for name, gate in library.REGISTRY.items():
            assert gate.name == name

    def test_identity_factory(self):
        gate = library.identity(3)
        assert gate.is_identity()
        assert gate.arity == 3
