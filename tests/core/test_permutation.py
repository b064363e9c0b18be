"""Unit and property tests for repro.core.permutation."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.permutation import Permutation
from repro.errors import GateDefinitionError

permutations = st.permutations(list(range(8))).map(lambda p: Permutation(tuple(p)))
small_permutations = st.integers(1, 7).flatmap(
    lambda n: st.permutations(list(range(n))).map(lambda p: Permutation(tuple(p)))
)


class TestConstruction:
    def test_identity(self):
        identity = Permutation.identity(4)
        assert identity.mapping == (0, 1, 2, 3)
        assert identity.is_identity()

    def test_rejects_repeats(self):
        with pytest.raises(GateDefinitionError):
            Permutation((0, 0, 1))

    def test_rejects_out_of_range(self):
        with pytest.raises(GateDefinitionError):
            Permutation((0, 3))


class TestGroupLaws:
    @given(small_permutations)
    def test_inverse_composes_to_identity(self, perm):
        assert perm.compose(perm.inverse()).is_identity()
        assert perm.inverse().compose(perm).is_identity()

    @given(permutations, permutations, permutations)
    def test_associativity(self, a, b, c):
        left = a.compose(b).compose(c)
        right = a.compose(b.compose(c))
        assert left == right

    @given(small_permutations)
    def test_double_inverse(self, perm):
        assert perm.inverse().inverse() == perm

    def test_compose_rejects_size_mismatch(self):
        with pytest.raises(GateDefinitionError, match="size mismatch"):
            Permutation((1, 0)).compose(Permutation((0, 1, 2)))


class TestStructure:
    def test_inversions_of_paper_line(self):
        # The Figure-7 line order has exactly nine inversions = SWAPs.
        perm = Permutation((0, 3, 6, 1, 4, 7, 2, 5, 8))
        assert perm.inversions() == 9

    @given(permutations, permutations)
    def test_inversions_parity_matches_permutation_parity(self, a, b):
        # The inversion count's parity is the permutation's sign, so the
        # parities add under composition.
        assert a.compose(b).inversions() % 2 == (
            a.inversions() + b.inversions()
        ) % 2

