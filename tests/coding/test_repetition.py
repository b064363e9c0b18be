"""Tests for the repetition code."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.coding.repetition import (
    LOGICAL_ONE,
    LOGICAL_ZERO,
    RepetitionCode,
    THREE_BIT_CODE,
)
from repro.errors import CodingError

odd_lengths = st.integers(0, 4).map(lambda k: 2 * k + 1)


class TestConstruction:
    def test_default_is_three(self):
        assert RepetitionCode().length == 3
        assert THREE_BIT_CODE.length == 3

    def test_rejects_even_length(self):
        with pytest.raises(CodingError):
            RepetitionCode(4)

    def test_rejects_non_positive(self):
        with pytest.raises(CodingError):
            RepetitionCode(-3)



class TestEncodeDecode:
    def test_codewords(self):
        assert THREE_BIT_CODE.encode(0) == LOGICAL_ZERO == (0, 0, 0)
        assert THREE_BIT_CODE.encode(1) == LOGICAL_ONE == (1, 1, 1)

    def test_encode_rejects_non_bit(self):
        with pytest.raises(CodingError):
            THREE_BIT_CODE.encode(2)

    def test_decode_majority(self):
        assert THREE_BIT_CODE.decode((1, 0, 1)) == 1
        assert THREE_BIT_CODE.decode((0, 0, 1)) == 0

    def test_decode_rejects_wrong_length(self):
        with pytest.raises(CodingError):
            THREE_BIT_CODE.decode((0, 1))

    @given(odd_lengths, st.integers(0, 1))
    def test_round_trip(self, length, bit):
        code = RepetitionCode(length)
        assert code.decode(code.encode(bit)) == bit

    @given(st.integers(0, 1), st.data())
    def test_decoding_corrects_up_to_t_errors(self, bit, data):
        length = data.draw(odd_lengths)
        code = RepetitionCode(length)
        n_errors = data.draw(st.integers(0, (length - 1) // 2))
        positions = data.draw(
            st.lists(
                st.integers(0, length - 1),
                min_size=n_errors,
                max_size=n_errors,
                unique=True,
            )
        )
        corrupted = code.corrupt(code.encode(bit), positions)
        assert code.decode(corrupted) == bit

    @given(st.integers(0, 1), st.data())
    def test_majority_plus_one_errors_flip_decoding(self, bit, data):
        length = data.draw(odd_lengths)
        code = RepetitionCode(length)
        n_errors = (length - 1) // 2 + 1
        positions = list(range(n_errors))
        corrupted = code.corrupt(code.encode(bit), positions)
        # With exactly t+1 errors on a 2t+1 code the majority flips.
        assert code.decode(corrupted) == bit ^ 1


class TestUtilities:
    def test_errors_in(self):
        assert THREE_BIT_CODE.errors_in((1, 0, 1), 1) == 1
        assert THREE_BIT_CODE.errors_in((1, 0, 1), 0) == 2

    def test_corrupt_validates_positions(self):
        with pytest.raises(CodingError):
            THREE_BIT_CODE.corrupt((0, 0, 0), [5])

    def test_corrupt_deduplicates_positions(self):
        assert THREE_BIT_CODE.corrupt((0, 0, 0), [1, 1]) == (0, 1, 0)
