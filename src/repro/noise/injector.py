"""Deterministic fault injection for exhaustive fault-tolerance proofs.

The recovery circuits in this reproduction are small (9 wires, ~13
operations), which lets us replace sampling with *exhaustion*: enumerate
every fault location, every fault outcome at that location, and every
relevant input, then check the recovered logical value.  A fault at an
operation replaces that operation's effect with an arbitrary bit
pattern written onto its wires — the worst-case realisation of the
paper's "randomize all the bits it is applied to".
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass
from itertools import combinations

from repro.core.bits import Bits, all_bit_vectors, validate_bits
from repro.core.circuit import Circuit
from repro.core.simulator import apply_operation
from repro.errors import SimulationError


@dataclass(frozen=True)
class Fault:
    """A fault: operation ``op_index`` outputs ``pattern`` on its wires.

    The faulty operation's own action is discarded — the adversary
    chooses the wires' contents outright, which dominates the random
    fault of the noise model.
    """

    op_index: int
    pattern: Bits

    def __post_init__(self) -> None:
        validate_bits(self.pattern)


def run_with_faults(
    circuit: Circuit,
    input_bits: Sequence[int],
    faults: Sequence[Fault] | Mapping[int, Bits],
) -> Bits:
    """Run the circuit with specific operations replaced by faults.

    ``faults`` maps operation indices to the bit patterns forced onto
    those operations' wires (a sequence of :class:`Fault` works too).
    """
    if isinstance(faults, Mapping):
        fault_map = dict(faults)
    else:
        fault_map = {fault.op_index: fault.pattern for fault in faults}
        if len(fault_map) != len(faults):
            raise SimulationError("duplicate op_index in fault list")

    if len(input_bits) != circuit.n_wires:
        raise SimulationError(
            f"input has {len(input_bits)} bits but circuit has "
            f"{circuit.n_wires} wires"
        )
    for op_index in fault_map:
        if not 0 <= op_index < len(circuit):
            raise SimulationError(
                f"fault op_index {op_index} out of range for circuit with "
                f"{len(circuit)} operations"
            )

    state = list(input_bits)
    for index, op in enumerate(circuit):
        if index in fault_map:
            pattern = fault_map[index]
            if len(pattern) != len(op.wires):
                raise SimulationError(
                    f"fault pattern width {len(pattern)} does not match "
                    f"operation on {len(op.wires)} wires"
                )
            for wire, bit in zip(op.wires, pattern):
                state[wire] = bit
        else:
            apply_operation(state, op)
    return tuple(state)


def iter_single_faults(
    circuit: Circuit, include_resets: bool = True
) -> Iterator[Fault]:
    """Every (operation, outcome) single-fault in the circuit.

    Each operation contributes ``2**arity`` possible fault outcomes
    (including the pattern the operation would have produced anyway —
    harmless, but enumerating it keeps the iteration uniform).
    """
    for index, op in enumerate(circuit):
        if op.is_reset and not include_resets:
            continue
        for pattern in all_bit_vectors(len(op.wires)):
            yield Fault(op_index=index, pattern=pattern)


def iter_fault_pairs(
    circuit: Circuit, include_resets: bool = True
) -> Iterator[tuple[Fault, Fault]]:
    """Every unordered pair of faults at distinct operations."""
    indices = [
        i
        for i, op in enumerate(circuit)
        if include_resets or not op.is_reset
    ]
    for first, second in combinations(indices, 2):
        arity_first = len(circuit.ops[first].wires)
        arity_second = len(circuit.ops[second].wires)
        for pattern_first in all_bit_vectors(arity_first):
            for pattern_second in all_bit_vectors(arity_second):
                yield (
                    Fault(op_index=first, pattern=pattern_first),
                    Fault(op_index=second, pattern=pattern_second),
                )

