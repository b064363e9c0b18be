"""The process-wide compile cache: keying, counters, knobs, eviction."""

from __future__ import annotations

import pytest

from repro.core.circuit import Circuit
from repro.core.compiled import (
    COMPILE_CACHE_MAX_ENTRIES,
    CompiledCircuit,
    _COMPILE_CACHE,
    clear_compile_cache,
    compile_circuit,
)
from repro.core.library import MAJ
from tests.conftest import CounterDeltas


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_compile_cache()
    yield
    clear_compile_cache()


def build_circuit() -> Circuit:
    return Circuit(4).cnot(0, 1).toffoli(1, 2, 3).append_reset(2, value=1)


def build_fusable_circuit() -> Circuit:
    return Circuit(4).cnot(0, 1).cnot(2, 3)


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

    def test_append_refreshes_the_cached_key(self):
        # The key is cached on the instance; append must drop it, and
        # the refreshed key must equal a fresh op-for-op twin's.
        circuit = build_circuit()
        before = circuit.content_key()
        circuit.cnot(3, 0)
        after = circuit.content_key()
        assert after != before
        assert after == build_circuit().cnot(3, 0).content_key()
        assert after == Circuit(4, _ops=list(circuit.ops)).content_key()

    def test_key_is_hashable(self):
        assert {build_circuit().content_key(): 1}[build_circuit().content_key()] == 1


class TestKeying:
    def test_identical_content_hits(self):
        counts = CounterDeltas()
        first = compile_circuit(build_circuit())
        second = compile_circuit(build_circuit())  # rebuilt from scratch
        assert first is second
        assert counts["compile.cache.hit"] == 1
        assert counts["compile.cache.miss"] == 1
        assert len(_COMPILE_CACHE) == 1

    def test_mutated_circuit_misses(self):
        counts = CounterDeltas()
        circuit = build_circuit()
        first = compile_circuit(circuit)
        circuit.maj(0, 1, 2)
        second = compile_circuit(circuit)
        assert first is not second
        assert len(second) == len(first) + 1
        assert counts["compile.cache.hit"] == 0
        assert counts["compile.cache.miss"] == 2
        assert len(_COMPILE_CACHE) == 2

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
        # Two disjoint CNOTs share one slot when fused and take one
        # slot each when not, so each mode must get its own entry.
        fused = compile_circuit(build_fusable_circuit(), fuse=True)
        unfused = compile_circuit(build_fusable_circuit(), fuse=False)
        assert fused is not unfused
        assert len(fused.slots) < len(fused)
        assert len(unfused.slots) == len(unfused)
        assert compile_circuit(build_fusable_circuit(), fuse=False) is unfused


class TestKnobs:
    def test_cache_disabled_compiles_fresh(self):
        counts = CounterDeltas()
        first = compile_circuit(build_circuit(), cache=False)
        second = compile_circuit(build_circuit(), cache=False)
        assert first is not second
        assert counts["compile.cache.hit"] == counts["compile.cache.miss"] == 0
        assert len(_COMPILE_CACHE) == 0

    def test_disabling_ignores_warm_entries(self):
        warm = compile_circuit(build_circuit())
        assert compile_circuit(build_circuit(), cache=False) is not warm

    def test_fusion_disabled_by_flag(self):
        assert len(compile_circuit(build_fusable_circuit()).slots) == 1
        compiled = compile_circuit(build_fusable_circuit(), fuse=False)
        assert len(compiled.slots) == len(compiled) == 2

    def test_clear_resets_counters(self):
        # Clearing empties the cache, so the next compile misses; the
        # process-wide counters are monotonic and keep counting.
        first = compile_circuit(build_circuit())
        clear_compile_cache()
        assert len(_COMPILE_CACHE) == 0
        counts = CounterDeltas()
        assert compile_circuit(build_circuit()) is not first
        assert counts["compile.cache.miss"] == 1
        assert counts["compile.cache.hit"] == 0

    def test_direct_construction_bypasses_cache(self):
        counts = CounterDeltas()
        CompiledCircuit(build_circuit())
        assert len(_COMPILE_CACHE) == 0
        assert counts["compile.cache.miss"] == 0


class TestEviction:
    def test_bounded_with_lru_eviction(self):
        oldest = compile_circuit(Circuit(2).cnot(0, 1))
        for wires in range(3, 2 + COMPILE_CACHE_MAX_ENTRIES):  # fill to the bound
            compile_circuit(Circuit(wires).cnot(0, 1))
        # Touch the oldest entry so eviction removes something else.
        assert compile_circuit(Circuit(2).cnot(0, 1)) is oldest
        compile_circuit(Circuit(2).swap(0, 1))  # exceeds the bound
        assert len(_COMPILE_CACHE) == COMPILE_CACHE_MAX_ENTRIES
        assert compile_circuit(Circuit(2).cnot(0, 1)) is oldest  # survived
