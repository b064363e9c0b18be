"""Unit tests for repro.core.bits."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import bits
from repro.errors import GateDefinitionError

bit_vectors = st.lists(st.integers(0, 1), min_size=1, max_size=12).map(tuple)


class TestPacking:
    def test_msb_first_convention(self):
        assert bits.bits_to_index((1, 0, 0)) == 4
        assert bits.bits_to_index((0, 0, 1)) == 1

    def test_empty_vector_packs_to_zero(self):
        assert bits.bits_to_index(()) == 0

    def test_unpack_matches_table_one_reading(self):
        assert bits.index_to_bits(4, 3) == (1, 0, 0)
        assert bits.index_to_bits(3, 3) == (0, 1, 1)

    @given(bit_vectors)
    def test_round_trip(self, vector):
        index = bits.bits_to_index(vector)
        assert bits.index_to_bits(index, len(vector)) == vector

    @given(st.integers(1, 12), st.data())
    def test_round_trip_from_index(self, width, data):
        index = data.draw(st.integers(0, (1 << width) - 1))
        assert bits.bits_to_index(bits.index_to_bits(index, width)) == index

    def test_out_of_range_index_rejected(self):
        with pytest.raises(GateDefinitionError):
            bits.index_to_bits(8, 3)
        with pytest.raises(GateDefinitionError):
            bits.index_to_bits(-1, 3)

    def test_non_binary_values_rejected(self):
        with pytest.raises(GateDefinitionError):
            bits.bits_to_index((0, 2, 1))


class TestStrings:
    def test_bitstring(self):
        assert bits.bitstring((1, 0, 1)) == "101"

    def test_parse(self):
        assert bits.parse_bits("0110") == (0, 1, 1, 0)

    def test_parse_rejects_non_binary(self):
        with pytest.raises(GateDefinitionError):
            bits.parse_bits("01a")
        with pytest.raises(GateDefinitionError):
            bits.parse_bits("012")

    @given(bit_vectors)
    def test_parse_inverts_bitstring(self, vector):
        assert bits.parse_bits(bits.bitstring(vector)) == vector


class TestEnumeration:
    def test_all_bit_vectors_count_and_order(self):
        vectors = list(bits.all_bit_vectors(3))
        assert len(vectors) == 8
        assert vectors[0] == (0, 0, 0)
        assert vectors[4] == (1, 0, 0)
        assert vectors[-1] == (1, 1, 1)

    def test_all_bit_vectors_distinct(self):
        vectors = list(bits.all_bit_vectors(5))
        assert len(set(vectors)) == 32


class TestHamming:
    def test_distance(self):
        assert bits.hamming_distance((0, 0, 0), (1, 0, 1)) == 2

    def test_distance_rejects_length_mismatch(self):
        with pytest.raises(GateDefinitionError):
            bits.hamming_distance((0, 0), (0, 0, 0))

    @given(bit_vectors)
    def test_distance_to_self_is_zero(self, vector):
        assert bits.hamming_distance(vector, vector) == 0

    @given(bit_vectors, st.data())
    def test_triangle_inequality(self, a, data):
        b = data.draw(
            st.lists(
                st.integers(0, 1), min_size=len(a), max_size=len(a)
            ).map(tuple)
        )
        c = data.draw(
            st.lists(
                st.integers(0, 1), min_size=len(a), max_size=len(a)
            ).map(tuple)
        )
        assert bits.hamming_distance(a, c) <= (
            bits.hamming_distance(a, b) + bits.hamming_distance(b, c)
        )


class TestMajority:
    def test_simple_cases(self):
        assert bits.majority((1, 0, 1)) == 1
        assert bits.majority((0, 0, 1)) == 0
        assert bits.majority((1,)) == 1

    def test_even_length_rejected(self):
        with pytest.raises(GateDefinitionError):
            bits.majority((0, 1))

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=9).filter(lambda v: len(v) % 2 == 1))
    def test_majority_flips_under_complement(self, vector):
        complement = [b ^ 1 for b in vector]
        assert bits.majority(vector) == 1 - bits.majority(complement)

