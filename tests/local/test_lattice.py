"""Tests for lattices and the locality checker."""

from __future__ import annotations

import pytest

from repro.core.circuit import Circuit
from repro.local.lattice import (
    Chain,
    Grid,
    circuit_is_local,
    is_connected_set,
    is_local_operation,
    validate_circuit_locality,
)
from repro.errors import LocalityError


class TestChain:
    def test_positions(self):
        chain = Chain(5)
        assert chain.position(3) == (3,)

    def test_adjacency(self):
        chain = Chain(5)
        assert chain.adjacent((1,), (2,))
        assert not chain.adjacent((1,), (3,))

    def test_wire_range_validated(self):
        with pytest.raises(LocalityError):
            Chain(3).position(5)

    def test_rejects_empty(self):
        with pytest.raises(LocalityError):
            Chain(0)


class TestGrid:
    def test_wire_and_position_inverse(self):
        grid = Grid(3, 4)
        for wire in range(grid.n_sites):
            row, col = grid.position(wire)
            assert grid.wire(row, col) == wire

    def test_adjacency_is_manhattan_one(self):
        grid = Grid(3, 3)
        assert grid.adjacent((0, 0), (0, 1))
        assert grid.adjacent((0, 0), (1, 0))
        assert not grid.adjacent((0, 0), (1, 1))
        assert not grid.adjacent((0, 0), (0, 2))

    def test_bounds_checked(self):
        grid = Grid(2, 2)
        with pytest.raises(LocalityError):
            grid.wire(2, 0)
        with pytest.raises(LocalityError):
            grid.position(4)

    def test_rejects_empty_dimension(self):
        with pytest.raises(LocalityError, match="grid dimensions"):
            Grid(0, 3)


class TestConnectedSets:
    def test_empty_and_singleton_connected(self):
        chain = Chain(5)
        assert is_connected_set(chain, [])
        assert is_connected_set(chain, [(2,)])

    def test_contiguous_triple_connected(self):
        chain = Chain(5)
        assert is_connected_set(chain, [(1,), (2,), (3,)])

    def test_gap_disconnects(self):
        chain = Chain(5)
        assert not is_connected_set(chain, [(0,), (2,)])

    def test_l_shape_connected_on_grid(self):
        grid = Grid(3, 3)
        assert is_connected_set(grid, [(0, 0), (0, 1), (1, 1)])

    def test_diagonal_not_connected(self):
        grid = Grid(3, 3)
        assert not is_connected_set(grid, [(0, 0), (1, 1)])


class TestOperationLocality:
    def test_size_limit(self):
        chain = Chain(6)
        assert not is_local_operation(chain, [0, 1, 2, 3])
        assert is_local_operation(chain, [0, 1, 2])

    def test_order_irrelevant(self):
        chain = Chain(6)
        assert is_local_operation(chain, [2, 0, 1])

    def test_circuit_validation_passes_for_local(self):
        circuit = Circuit(4).maj(0, 1, 2).swap(2, 3)
        validate_circuit_locality(circuit, Chain(4))

    def test_circuit_validation_raises_with_context(self):
        circuit = Circuit(4).cnot(0, 3)
        with pytest.raises(LocalityError) as info:
            validate_circuit_locality(circuit, Chain(4))
        assert "CNOT" in str(info.value)

    def test_boolean_form(self):
        assert circuit_is_local(Circuit(3).maj(0, 1, 2), Chain(3))
        assert not circuit_is_local(Circuit(3).cnot(0, 2), Chain(3))

    def test_resets_also_checked(self):
        circuit = Circuit(4).append_reset(0, 3)
        assert not circuit_is_local(circuit, Chain(4))
