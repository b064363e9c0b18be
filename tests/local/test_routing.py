"""Tests for adjacent-SWAP routing and SWAP3 packing."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.circuit import Circuit
from repro.core.truth_table import circuit_permutation
from repro.local.routing import (
    PackedOp,
    adjacent_swaps_to_sort,
    append_packed,
    apply_swap_schedule,
    move_token,
    pack_swaps,
    packed_census,
    swaps_touching,
)
from repro.errors import LocalityError

lines = st.permutations(list(range(9)))


def inversions(line) -> int:
    """Out-of-order pairs of ``line``: its minimal adjacent-swap count."""
    return sum(
        line[i] > line[j]
        for i in range(len(line))
        for j in range(i + 1, len(line))
    )


class TestSortSchedules:
    @given(lines)
    def test_schedule_sorts(self, line):
        working = list(line)
        apply_swap_schedule(working, adjacent_swaps_to_sort(line))
        assert working == sorted(line)

    @given(lines)
    def test_schedule_length_equals_inversions(self, line):
        swaps = adjacent_swaps_to_sort(line)
        assert len(swaps) == inversions(line)

    def test_figure_7_line_needs_nine_swaps(self):
        assert len(adjacent_swaps_to_sort([0, 3, 6, 1, 4, 7, 2, 5, 8])) == 9

    def test_sorted_line_needs_no_swaps(self):
        assert adjacent_swaps_to_sort(list(range(5))) == []


class TestInversions:
    def test_inversions_of_paper_line(self):
        # The Figure-7 line order has exactly nine inversions = SWAPs.
        assert inversions((0, 3, 6, 1, 4, 7, 2, 5, 8)) == 9

    @given(lines, lines)
    def test_inversions_parity_matches_permutation_parity(self, a, b):
        # The inversion count's parity is the permutation's sign, so the
        # parities add under composition.
        composed = [a[image] for image in b]
        assert inversions(composed) % 2 == (inversions(a) + inversions(b)) % 2


class TestMoveToken:
    def test_move_right_shifts_others_left(self):
        line = list("abcde")
        swaps = move_token(line, 0, 3)
        assert line == list("bcdae")
        assert len(swaps) == 3

    def test_move_left(self):
        line = list("abcde")
        swaps = move_token(line, 4, 1)
        assert line == list("aebcd")
        assert len(swaps) == 3

    def test_no_move(self):
        line = list("ab")
        assert move_token(line, 1, 1) == []
        assert line == list("ab")

    def test_bounds_checked(self):
        with pytest.raises(LocalityError):
            move_token(list("ab"), 0, 5)


class TestPacking:
    def test_paper_packing_census(self):
        swaps = adjacent_swaps_to_sort([0, 3, 6, 1, 4, 7, 2, 5, 8])
        census = packed_census(pack_swaps(swaps))
        assert census["SWAP3_UP"] + census.get("SWAP3_DOWN", 0) == 4
        assert census["SWAP"] == 1

    @given(lines)
    @settings(max_examples=30, deadline=None)
    def test_packed_ops_reproduce_the_swaps(self, line):
        """Replacing swap pairs with SWAP3 gates preserves the action."""
        swaps = adjacent_swaps_to_sort(line)
        packed = pack_swaps(swaps)

        plain = Circuit(9)
        for low, high in swaps:
            plain.swap(low, high)
        fused = Circuit(9)
        append_packed(fused, packed)
        assert circuit_permutation(plain) == circuit_permutation(fused)

    def test_append_packed_maps_positions_to_wires(self):
        packed = [PackedOp("SWAP3_UP", (0, 1, 2)), PackedOp("SWAP", (1, 2))]
        circuit = Circuit(8)
        append_packed(circuit, packed, [5, 3, 7])
        assert [(op.label, op.wires) for op in circuit] == [
            ("SWAP3_UP", (5, 3, 7)),
            ("SWAP", (3, 7)),
        ]

    @given(lines)
    def test_packing_never_lengthens(self, line):
        swaps = adjacent_swaps_to_sort(line)
        packed = pack_swaps(swaps)
        assert len(packed) <= len(swaps)
        swap_equivalents = sum(
            2 if op.kind.startswith("SWAP3") else 1 for op in packed
        )
        assert swap_equivalents == len(swaps)

    def test_pack_rejects_non_adjacent(self):
        with pytest.raises(LocalityError):
            pack_swaps([(0, 2)])

    def test_schedule_past_the_line_rejected(self):
        with pytest.raises(LocalityError, match="outside line of length 3"):
            apply_swap_schedule(["a", "b", "c"], [(2, 3)])

    def test_single_swap_stays_swap(self):
        assert pack_swaps([(3, 4)]) == [PackedOp(kind="SWAP", wires=(3, 4))]


class TestTouchCounting:
    def test_counts_only_selected_tokens(self):
        line = ["a", "b", "c"]
        swaps = [(0, 1), (1, 2)]
        assert swaps_touching(swaps, line, {"a"}) == 2  # a moves twice
        assert swaps_touching(swaps, line, {"c"}) == 1

    def test_empty_token_set(self):
        assert swaps_touching([(0, 1)], ["a", "b"], set()) == 0
