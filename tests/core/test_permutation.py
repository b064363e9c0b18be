"""Gate tables as permutations of their input patterns.

A reversible function has one form, :attr:`~repro.core.gate.Gate.table`.
These pin the one bijectivity check (``Gate.__post_init__``) and the one
table inverse, :func:`~repro.core.gate.invert_table`.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import library
from repro.core.gate import Gate, invert_table
from repro.errors import GateDefinitionError

tables = st.integers(1, 8).flatmap(
    lambda n: st.permutations(list(range(n))).map(tuple)
)


class TestConstruction:
    def test_identity(self):
        identity = library.identity(2)
        assert identity.table == (0, 1, 2, 3)
        assert identity.is_identity()
        assert invert_table(identity.table) == identity.table

    def test_rejects_repeats(self):
        with pytest.raises(GateDefinitionError):
            Gate(name="bad", arity=2, table=(0, 0, 1, 2))

    def test_rejects_out_of_range(self):
        with pytest.raises(GateDefinitionError):
            Gate(name="bad", arity=1, table=(0, 3))


class TestGroupLaws:
    @given(tables)
    def test_inverse_composes_to_identity(self, table):
        inverse = invert_table(table)
        assert all(inverse[table[i]] == i for i in range(len(table)))
        assert all(table[inverse[i]] == i for i in range(len(table)))

    @given(tables)
    def test_double_inverse(self, table):
        assert invert_table(invert_table(table)) == table
