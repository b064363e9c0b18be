"""The process-wide compile cache: keying, counters, env knobs."""

from __future__ import annotations

import pytest

from repro.core.circuit import Circuit
from repro.core.compiled import (
    CompiledCircuit,
    clear_compile_cache,
    compile_cache_stats,
    compile_circuit,
)
from repro.core.library import MAJ


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_compile_cache()
    yield
    clear_compile_cache()


def build_circuit() -> Circuit:
    return Circuit(4).cnot(0, 1).toffoli(1, 2, 3).append_reset(2, value=1)


class TestContentKey:
    """The public content key the cache (and the synth database) share."""

    def test_rebuilt_circuit_shares_key(self):
        assert build_circuit().content_key() == build_circuit().content_key()

    def test_name_is_not_content(self):
        assert (
            build_circuit().copy(name="renamed").content_key()
            == build_circuit().content_key()
        )

    def test_mutation_changes_key(self):
        circuit = build_circuit()
        key = circuit.content_key()
        circuit.x(0)
        assert circuit.content_key() != key

    def test_key_is_hashable(self):
        assert {build_circuit().content_key(): 1}[build_circuit().content_key()] == 1


class TestKeying:
    def test_identical_content_hits(self):
        first = compile_circuit(build_circuit())
        second = compile_circuit(build_circuit())  # rebuilt from scratch
        assert first is second
        stats = compile_cache_stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["size"] == 1

    def test_mutated_circuit_misses(self):
        circuit = build_circuit()
        first = compile_circuit(circuit)
        circuit.maj(0, 1, 2)
        second = compile_circuit(circuit)
        assert first is not second
        assert len(second) == len(first) + 1
        assert compile_cache_stats() == {"hits": 0, "misses": 2, "size": 2}

    def test_reset_value_is_part_of_the_key(self):
        first = compile_circuit(Circuit(2).append_reset(0, value=0))
        second = compile_circuit(Circuit(2).append_reset(0, value=1))
        assert first is not second

    def test_wire_count_is_part_of_the_key(self):
        first = compile_circuit(Circuit(3).cnot(0, 1))
        second = compile_circuit(Circuit(4).cnot(0, 1))
        assert first is not second

    def test_gate_identity_is_part_of_the_key(self):
        first = compile_circuit(Circuit(3).maj(0, 1, 2))
        second = compile_circuit(Circuit(3).append_gate(MAJ.inverse(), 0, 1, 2))
        assert first is not second

    def test_fuse_flag_is_part_of_the_key(self):
        fused = compile_circuit(build_circuit(), fuse=True)
        unfused = compile_circuit(build_circuit(), fuse=False)
        assert fused is not unfused
        assert fused.fused and not unfused.fused


class TestKnobs:
    def test_cache_disabled_compiles_fresh(self):
        first = compile_circuit(build_circuit(), cache=False)
        second = compile_circuit(build_circuit(), cache=False)
        assert first is not second
        assert compile_cache_stats() == {"hits": 0, "misses": 0, "size": 0}

    def test_disabling_ignores_warm_entries(self):
        warm = compile_circuit(build_circuit())
        assert compile_circuit(build_circuit(), cache=False) is not warm

    def test_fusion_disabled_by_flag(self):
        compiled = compile_circuit(build_circuit(), fuse=False)
        assert not compiled.fused
        assert len(compiled.slots) == len(compiled.schedule)

    def test_clear_resets_counters(self):
        compile_circuit(build_circuit())
        clear_compile_cache()
        assert compile_cache_stats() == {"hits": 0, "misses": 0, "size": 0}

    def test_direct_construction_bypasses_cache(self):
        CompiledCircuit(build_circuit())
        assert compile_cache_stats()["size"] == 0


class TestEviction:
    def test_bounded_with_lru_eviction(self):
        from repro.core.compiled import _COMPILE_CACHE

        oldest = compile_circuit(Circuit(2).cnot(0, 1))
        for wires in range(3, 2 + _COMPILE_CACHE.max_entries):  # fill to the bound
            compile_circuit(Circuit(wires).cnot(0, 1))
        # Touch the oldest entry so eviction removes something else.
        assert compile_circuit(Circuit(2).cnot(0, 1)) is oldest
        compile_circuit(Circuit(2).swap(0, 1))  # exceeds the bound
        assert compile_cache_stats()["size"] == _COMPILE_CACHE.max_entries
        assert compile_circuit(Circuit(2).cnot(0, 1)) is oldest  # survived
