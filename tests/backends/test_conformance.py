"""Run the conformance suite on the execution backend, and pin its seams."""

from __future__ import annotations

import pytest
from conformance import BackendConformance

from repro.backends import get_backend, prepare
from repro.coding.concatenation import recovery_circuit
from repro.core.compiled import CompiledCircuit
from repro.errors import ConfigError


class TestNumpyBackendConformance(BackendConformance):
    """The suite on the bit-plane slot walk."""


def test_prepared_program_cached_per_compiled_circuit():
    # The compiled circuit is its own executable: nothing to cache.
    compiled = CompiledCircuit(recovery_circuit())
    assert prepare(compiled) is compiled


def test_unknown_backend_raises_config_error():
    assert get_backend() is get_backend("numpy")
    with pytest.raises(ConfigError, match="fused"):
        get_backend("fused")
