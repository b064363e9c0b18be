"""Unit tests for repro.core.gate."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.gate import Gate
from repro.errors import GateDefinitionError

gate_tables = st.permutations(list(range(8))).map(
    lambda p: Gate(name="g", arity=3, table=tuple(p))
)


class TestConstruction:
    def test_valid_gate(self):
        gate = Gate(name="swap", arity=1, table=(1, 0))
        assert gate.apply((0,)) == (1,)

    def test_rejects_non_permutation_table(self):
        with pytest.raises(GateDefinitionError):
            Gate(name="bad", arity=1, table=(0, 0))

    def test_rejects_wrong_table_size(self):
        with pytest.raises(GateDefinitionError):
            Gate(name="bad", arity=2, table=(0, 1))

    def test_rejects_zero_arity(self):
        with pytest.raises(GateDefinitionError):
            Gate(name="bad", arity=0, table=(0,))

    def test_from_function_checks_width(self):
        with pytest.raises(GateDefinitionError):
            Gate.from_function("bad", 2, lambda bits: (bits[0],))

    def test_from_function_checks_bijectivity(self):
        with pytest.raises(GateDefinitionError):
            Gate.from_function("bad", 1, lambda bits: (0,))


class TestApplication:
    def test_apply_index_and_bits_agree(self):
        gate = Gate.from_function("not", 1, lambda bits: (bits[0] ^ 1,))
        assert gate.table[0] == 1
        assert gate.apply((0,)) == (1,)

    def test_apply_rejects_wrong_width(self):
        gate = Gate.from_function("not", 1, lambda bits: (bits[0] ^ 1,))
        with pytest.raises(GateDefinitionError):
            gate.apply((0, 1))

    @given(gate_tables, st.integers(0, 7))
    def test_apply_matches_table(self, gate, index):
        from repro.core.bits import bits_to_index, index_to_bits

        output = gate.apply(index_to_bits(index, 3))
        assert bits_to_index(output) == gate.table[index]


class TestInverse:
    @given(gate_tables)
    def test_inverse_round_trip(self, gate):
        inverse = gate.inverse()
        for index in range(8):
            assert inverse.table[gate.table[index]] == index

    def test_inverse_naming(self):
        gate = Gate(name="MAJ", arity=2, table=(1, 2, 0, 3))
        assert gate.inverse().name == "MAJ⁻¹"
        assert gate.inverse().inverse().name == "MAJ"

    def test_self_inverse_gate_keeps_name(self):
        gate = Gate(name="X", arity=1, table=(1, 0))
        assert gate.inverse().name == "X"

    def test_explicit_name(self):
        gate = Gate(name="g", arity=1, table=(1, 0))
        assert gate.inverse("h").name == "h"


class TestProperties:
    def test_self_inverse_detection(self):
        swap = Gate(name="swap", arity=2, table=(0, 2, 1, 3))
        assert swap.is_self_inverse()
        cycle = Gate(name="rot", arity=2, table=(1, 2, 0, 3))
        assert not cycle.is_self_inverse()

    def test_identity_detection(self):
        assert Gate(name="i", arity=1, table=(0, 1)).is_identity()
        assert not Gate(name="x", arity=1, table=(1, 0)).is_identity()

    def test_same_action_ignores_name(self):
        a = Gate(name="a", arity=1, table=(1, 0))
        b = Gate(name="b", arity=1, table=(1, 0))
        assert a.same_action(b)
        assert a != b

    def test_renamed_preserves_action(self):
        a = Gate(name="a", arity=1, table=(1, 0))
        assert a.renamed("z").same_action(a)
        assert a.renamed("z").name == "z"

    def test_truth_table_rows_format(self):
        gate = Gate(name="x", arity=1, table=(1, 0))
        assert gate.truth_table_rows() == [("0", "1"), ("1", "0")]
