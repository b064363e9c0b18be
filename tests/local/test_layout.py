"""Tests for the Figure-4 tile layout and assemblies."""

from __future__ import annotations

import pytest

from repro.local.lattice import is_connected_set
from repro.local.layout import (
    DATA_COLUMN,
    FIG4_TILE,
    TileAssembly,
    tile_position,
    tile_wire,
)
from repro.errors import LocalityError


class TestTile:
    def test_figure_4_rows(self):
        assert FIG4_TILE == ((8, 2, 5), (7, 1, 4), (6, 0, 3))

    def test_position_wire_inverse(self):
        for label in range(9):
            row, col = tile_position(label)
            assert tile_wire(row, col) == label

    def test_data_on_middle_column(self):
        for label in (0, 1, 2):
            assert tile_position(label)[1] == DATA_COLUMN

    def test_encode_triples_are_rows(self):
        for triple in ((0, 3, 6), (1, 4, 7), (2, 5, 8)):
            rows = {tile_position(label)[0] for label in triple}
            assert len(rows) == 1

    def test_decode_triples_are_columns(self):
        for triple in ((0, 1, 2), (3, 4, 5), (6, 7, 8)):
            cols = {tile_position(label)[1] for label in triple}
            assert len(cols) == 1

    def test_unknown_label_rejected(self):
        with pytest.raises(LocalityError):
            tile_position(9)
        with pytest.raises(LocalityError):
            tile_wire(3, 0)


class TestAssembly:
    def test_stacked_geometry(self):
        assembly = TileAssembly(3)
        assert assembly.grid.rows == 9 and assembly.grid.cols == 3
        # Tile 1's q0 sits three rows below tile 0's q0.
        r0 = assembly.position(assembly.wire(0, 0))
        r1 = assembly.position(assembly.wire(1, 0))
        assert r1 == (r0[0] + 3, r0[1])

    def test_stacked_data_collinear(self):
        assembly = TileAssembly(2)
        cols = {
            assembly.position(w)[1]
            for t in range(2)
            for w in assembly.data_wires(t)
        }
        assert cols == {DATA_COLUMN}

    def test_stacked_data_bits_contiguous_across_tiles(self):
        # Consecutive tiles' codewords form one unbroken column of data
        # cells — the "parallel" interleave geometry.
        assembly = TileAssembly(3)
        positions = [
            assembly.position(w)
            for t in range(3)
            for w in assembly.data_wires(t)
        ]
        assert is_connected_set(assembly.grid, positions)

    def test_wire_at_round_trip(self):
        assembly = TileAssembly(2)
        for wire in range(assembly.n_wires):
            row, col = assembly.position(wire)
            assert assembly.wire_at(row, col) == wire

    def test_adjacency_delegates_to_grid(self):
        assembly = TileAssembly(1)
        assert assembly.adjacent((0, 0), (0, 1))
        assert not assembly.adjacent((0, 0), (2, 2))

    def test_validation(self):
        with pytest.raises(LocalityError):
            TileAssembly(0)
        with pytest.raises(LocalityError):
            TileAssembly(1).wire(3, 0)

    def test_position_of_a_wire_outside_the_assembly(self):
        with pytest.raises(LocalityError, match="outside assembly of 2 tiles"):
            TileAssembly(2).position(18)
