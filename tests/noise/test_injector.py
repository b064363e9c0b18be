"""Tests for deterministic fault injection."""

from __future__ import annotations

import pytest

from repro.core.circuit import Circuit
from repro.noise.injector import (
    Fault,
    iter_fault_pairs,
    iter_single_faults,
    run_with_faults,
)
from repro.errors import SimulationError


def simple_circuit() -> Circuit:
    return Circuit(3).cnot(0, 1).maj(0, 1, 2).append_reset(2)


class TestRunWithFaults:
    def test_no_faults_matches_plain_run(self):
        from repro.core.simulator import run

        circuit = simple_circuit()
        assert run_with_faults(circuit, (1, 0, 1), []) == run(circuit, (1, 0, 1))

    def test_fault_overrides_operation(self):
        circuit = Circuit(2).cnot(0, 1)
        # Fault forces the CNOT's wires to (0, 0) regardless of inputs.
        output = run_with_faults(circuit, (1, 0), [Fault(0, (0, 0))])
        assert output == (0, 0)

    def test_fault_on_reset(self):
        circuit = Circuit(1).append_reset(0)
        output = run_with_faults(circuit, (0,), [Fault(0, (1,))])
        assert output == (1,)

    def test_mapping_form(self):
        circuit = Circuit(2).cnot(0, 1)
        assert run_with_faults(circuit, (1, 0), {0: (1, 1)}) == (1, 1)

    def test_two_faults(self):
        circuit = Circuit(2).cnot(0, 1).swap(0, 1)
        output = run_with_faults(
            circuit, (0, 0), [Fault(0, (1, 1)), Fault(1, (0, 1))]
        )
        assert output == (0, 1)

    def test_rejects_pattern_width_mismatch(self):
        circuit = Circuit(2).cnot(0, 1)
        with pytest.raises(SimulationError):
            run_with_faults(circuit, (0, 0), [Fault(0, (1,))])

    def test_rejects_out_of_range_index(self):
        circuit = Circuit(2).cnot(0, 1)
        with pytest.raises(SimulationError):
            run_with_faults(circuit, (0, 0), [Fault(5, (1, 1))])

    def test_rejects_duplicate_fault_sites(self):
        circuit = Circuit(2).cnot(0, 1)
        with pytest.raises(SimulationError):
            run_with_faults(
                circuit, (0, 0), [Fault(0, (1, 1)), Fault(0, (0, 0))]
            )

    def test_rejects_wrong_input_width(self):
        with pytest.raises(SimulationError):
            run_with_faults(Circuit(2), (0,), [])


class TestEnumeration:
    def test_single_fault_count(self):
        circuit = simple_circuit()
        faults = list(iter_single_faults(circuit))
        # CNOT: 4 patterns, MAJ: 8 patterns, reset: 2 patterns.
        assert len(faults) == 4 + 8 + 2

    def test_single_faults_exclude_resets(self):
        circuit = simple_circuit()
        faults = list(iter_single_faults(circuit, include_resets=False))
        assert len(faults) == 4 + 8
        assert all(f.op_index != 2 for f in faults)

    def test_pair_count(self):
        circuit = Circuit(2).cnot(0, 1).swap(0, 1)
        pairs = list(iter_fault_pairs(circuit))
        assert len(pairs) == 4 * 4  # one op pair, 4 patterns each

    def test_pairs_use_distinct_ops(self):
        circuit = simple_circuit()
        for first, second in iter_fault_pairs(circuit):
            assert first.op_index < second.op_index

    def test_fault_validates_pattern(self):
        with pytest.raises(Exception):
            Fault(0, (0, 2))
