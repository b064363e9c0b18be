"""Deterministic per-trial simulation of reversible circuits.

Two simulators exist:

* :func:`run` (this module) — the reference: one state on Python
  tuples, one gate table lookup per operation.  Exhaustive proofs and
  the fault enumeration run on it, and the engine tests check against
  it;
* :class:`~repro.core.bitplane.BitplaneState` — the bit-parallel state
  packing 64 trials into each uint64 word and executing gates as the
  in-place XOR cascades compiled by :mod:`repro.core.compiled`; the
  only state the Monte-Carlo layer (:mod:`repro.noise.monte_carlo`)
  runs on.

Both share the same conventions: wire 0 is the most significant bit of
a packed pattern, and noise enters only through the fault kernel,
never as a per-trial mask.  ``tests/core/test_engine_equivalence``
checks the bit-plane engine against :func:`run` trial by trial.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.bits import Bits, validate_bits
from repro.core.circuit import Circuit, Operation
from repro.core.gate import Gate
from repro.errors import SimulationError


def apply_gate(state: list[int], gate: Gate, wires: Sequence[int]) -> None:
    """Apply ``gate`` to ``state`` in place on the given wires."""
    packed = 0
    for wire in wires:
        packed = (packed << 1) | state[wire]
    packed = gate.table[packed]
    for position, wire in enumerate(wires):
        state[wire] = (packed >> (len(wires) - 1 - position)) & 1


def apply_operation(state: list[int], op: Operation) -> None:
    """Apply one circuit operation (gate or reset) in place."""
    if op.is_reset:
        for wire in op.wires:
            state[wire] = op.reset_value
    else:
        assert op.gate is not None
        apply_gate(state, op.gate, op.wires)


def run(circuit: Circuit, input_bits: Sequence[int]) -> Bits:
    """Run a circuit on one input and return the output bit vector."""
    if len(input_bits) != circuit.n_wires:
        raise SimulationError(
            f"input has {len(input_bits)} bits but circuit has "
            f"{circuit.n_wires} wires"
        )
    validate_bits(input_bits)
    state = list(input_bits)
    for op in circuit:
        apply_operation(state, op)
    return tuple(state)
