"""Frozen circuits of the fault-tolerant constructions.

Every published number that runs a coded circuit runs one of these:
the Figure-2 recovery cycle, a concatenated MAJ gate at levels 1 and
2, the threshold search's identity-cycle processors, the
fault-tolerant adder example and the local (1D and 2D) cycles.  A
``content_key()`` digest covers the wire count and the exact op
sequence, so any change to how ``repro.coding`` or ``repro.local`` lays
out or orders operations fails here by name.  The decoder wire form of
a cycle spec is pinned alongside, since the result store and job ids
hash it.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from repro.coding.concatenation import recovery_circuit, repeated_recovery
from repro.coding.logical import LogicalProcessor, concatenated_gate_circuit
from repro.coding.recovery import RecoveryLayout
from repro.core.library import MAJ
from repro.harness.threshold_finder import cycle_error_specs
from repro.local.local_recovery import one_d_recovery_circuit
from repro.local.logical_cycle import one_d_logical_cycle, two_d_logical_cycle
from repro.runtime.serialization import spec_to_json

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"

RECOVERY_KEYS = {
    True: "1dee6f29c64358335abef0bed4b717f6718b0dbadfc4891c6fecabe95968e8ff",
    False: "47e0ee8c632582fdcaff022c58a751b9a745af67ab851ad17d9c4874c95705ed",
}
REPEATED_RECOVERY = {
    (3, True): (
        "a8471595d69869eea76f313bd38a1acaba8b9e92038199a06f2d1e52cc93fcfe",
        RecoveryLayout(data=(0, 3, 4), ancillas=(1, 5, 6, 2, 7, 8)),
    ),
    (2, False): (
        "d6dc361eb442e425d0daeef7dc76a504cf3e493b780d38a64e2e426361d718f4",
        RecoveryLayout(data=(0, 1, 5), ancillas=(3, 6, 2, 4, 7, 8)),
    ),
}
MAJ_GATE_KEYS = {
    1: "f48725502d731af3a451dff905d7b8016d6a35af1838dcdf89190c368a283b06",
    2: "d6daec40ddea950b7dd41e3fc3e95d530c300f0ae8e43ece87dc38c17b263147",
}
CYCLE_KEYS = {
    1: "caac0b7332f60db3a993668a01c90ae66d88436a59a786d4b702125dfab1cf16",
    2: "ed49a741cee4756dba53c2b14ba6c7b2db8c6b6b6dc6fd17b0c3872489c892b9",
    3: "f1ba873f19b248a4bf5cc9ba456b042a91ed01e535d1f26d046fc23ba053ada0",
}
FT_ADDER_KEY = "1058ffa9ff41c6d76316f6501e4d78eb9a9ca60c0aa7e8c49c968e4e895ab717"
CYCLE_DECODER_WIRE = {
    "kind": "logical_processor",
    "n_logical": 3,
    "include_resets": True,
    "gates_applied": 2,
    "layouts": [
        {"data": [0, 1, 5], "ancillas": [3, 6, 2, 4, 7, 8]},
        {"data": [9, 10, 14], "ancillas": [12, 15, 11, 13, 16, 17]},
        {"data": [18, 19, 23], "ancillas": [21, 24, 20, 22, 25, 26]},
    ],
    "circuit": {
        "circuit_digest": (
            "59bfa1e8cee12a929d0187a15285dbcdf0c2302f5bd6166a175f4620b5521c1c"
        )
    },
}
LOCAL_KEYS = {
    "1d-recovery": "038703bb16a9417d849386107dc675e32279e5ae86c35812d539ca2dbd5bde03",
    "1d-recovery-x2-no-resets": (
        "eb1a124037698f0973ad97408dffb10e1deaa492d90e012ddadc8f3546bff117"
    ),
    "1d-cycle": "48ce88466fa3967319fcebd0b1666e0c0fe523cedcdd52f17fca959b091810ee",
    "2d-cycle": "fe204e699f42b1dd4bfb0daacdf46d37aaf1b3efc1ad5aefb280b2cabd35b68b",
}


def _cycle_circuit(cycles: int):
    (spec,) = cycle_error_specs(((1e-3, 0),), 1, cycles=cycles)
    return spec.circuit


def _load_example(name: str):
    spec = importlib.util.spec_from_file_location(name, EXAMPLES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("include_resets", [True, False])
def test_recovery_circuit_is_pinned(include_resets):
    key = recovery_circuit(include_resets).content_key()
    assert key == RECOVERY_KEYS[include_resets]


@pytest.mark.parametrize("cycles,include_resets", sorted(REPEATED_RECOVERY))
def test_repeated_recovery_is_pinned(cycles, include_resets):
    circuit, layout = repeated_recovery(cycles, include_resets)
    assert (circuit.content_key(), layout) == REPEATED_RECOVERY[
        (cycles, include_resets)
    ]


@pytest.mark.parametrize("level", [1, 2])
def test_concatenated_maj_gate_is_pinned(level):
    circuit, _ = concatenated_gate_circuit(MAJ, level)
    assert circuit.content_key() == MAJ_GATE_KEYS[level]


@pytest.mark.parametrize("cycles", [1, 2, 3])
def test_cycle_processor_circuit_is_pinned(cycles):
    assert _cycle_circuit(cycles).content_key() == CYCLE_KEYS[cycles]


def test_ft_adder_processor_is_pinned():
    adder = _load_example("ft_adder")
    processor = LogicalProcessor(2 + 2 * adder.N_BITS)
    for gate, operands in adder.adder_gates():
        processor.apply(gate, *operands)
    assert processor.circuit.content_key() == FT_ADDER_KEY


def test_cycle_decoder_wire_form_is_pinned():
    (spec,) = cycle_error_specs(((2e-3, 11),), 2000, cycles=1)
    assert spec_to_json(spec)["observable"]["decoder"] == CYCLE_DECODER_WIRE


def test_local_cycles_are_pinned():
    keys = {
        "1d-recovery": one_d_recovery_circuit().content_key(),
        "1d-recovery-x2-no-resets": one_d_recovery_circuit(
            2, include_resets=False
        ).content_key(),
        "1d-cycle": one_d_logical_cycle(MAJ)[0].content_key(),
        "2d-cycle": two_d_logical_cycle(MAJ)[0].content_key(),
    }
    assert keys == LOCAL_KEYS
