"""The noise layer's RNG front door (seed spawning, generators)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import AnalysisError
from repro.noise.seeds import as_generator, spawn_seeds


class TestSpawnSeeds:
    def test_deterministic(self):
        assert spawn_seeds(1234, 5) == spawn_seeds(1234, 5)

    def test_matches_seed_sequence_directly(self):
        # The move from harness.sweep must not change a single derived
        # seed — resumed sweeps depend on the derivation bit for bit.
        children = np.random.SeedSequence(99).spawn(3)
        expected = [
            int(child.generate_state(1, dtype=np.uint64)[0])
            for child in children
        ]
        assert spawn_seeds(99, 3) == expected

    def test_independent_per_point(self):
        seeds = spawn_seeds(7, 8)
        assert len(set(seeds)) == 8

    def test_negative_points_refused(self):
        with pytest.raises(AnalysisError):
            spawn_seeds(0, -1)

    def test_one_import_path(self):
        # repro.noise.seeds is the only module that exports spawn_seeds.
        import importlib

        for name in ("repro.harness", "repro.harness.sweep", "repro.noise"):
            assert not hasattr(importlib.import_module(name), "spawn_seeds")


class TestAsGenerator:
    def test_seed_builds_deterministic_generator(self):
        a = as_generator(42).integers(0, 1 << 30, size=4)
        b = as_generator(42).integers(0, 1 << 30, size=4)
        assert (a == b).all()

    def test_existing_generator_passes_through(self):
        rng = np.random.default_rng(0)
        assert as_generator(rng) is rng

    def test_none_gives_a_generator(self):
        assert isinstance(as_generator(None), np.random.Generator)
