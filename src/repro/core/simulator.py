"""Deterministic simulation of reversible circuits.

Two noiseless reference simulators and one Monte-Carlo engine exist:

* :func:`run` — a single-state reference simulator on Python tuples,
  used for exhaustive proofs and anywhere clarity beats speed;
* :class:`BatchedState` (this module) — a NumPy reference holding
  ``(trials, wires)`` uint8 states and applying each gate through a
  lookup table; simple and fully vectorised across trials;
* :class:`~repro.core.bitplane.BitplaneState` — the bit-parallel state
  packing 64 trials into each uint64 word and executing gates as the
  boolean plane programs compiled by :mod:`repro.core.compiled`; the
  only state the Monte-Carlo layer (:mod:`repro.noise.monte_carlo`)
  runs on.

All three share the same conventions: wire 0 is the most significant
bit of a packed pattern, every evolution step applies to every trial
(noise enters only through the fault kernel, never as a per-trial
mask), and the observation API (``array``, ``column``/``columns``,
``majority_of``) is identical, so predicates and decoders are
state-agnostic.  ``tests/core/test_engine_equivalence``
holds the differential suite proving the three bit-identical.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

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


class BatchedState:
    """A batch of circuit states stored as a ``(trials, wires)`` array.

    The array dtype is uint8 with entries in {0, 1}.  Gates are applied
    by packing the touched columns into an index, mapping through the
    gate's table, and unpacking — fully vectorised across trials.
    """

    def __init__(self, array: np.ndarray):
        if array.ndim != 2:
            raise SimulationError(
                f"batched state must be 2-D (trials, wires), got {array.ndim}-D"
            )
        if array.dtype != np.uint8:
            array = array.astype(np.uint8)
        if array.size and (array.max() > 1):
            raise SimulationError("batched state entries must be 0 or 1")
        self.array = array

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @staticmethod
    def broadcast(input_bits: Sequence[int], trials: int) -> "BatchedState":
        """All trials start from the same bit vector."""
        validate_bits(input_bits)
        row = np.asarray(input_bits, dtype=np.uint8)
        return BatchedState(np.tile(row, (trials, 1)))

    @staticmethod
    def zeros(n_wires: int, trials: int) -> "BatchedState":
        """All trials start from the all-zero state."""
        return BatchedState(np.zeros((trials, n_wires), dtype=np.uint8))

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int]]) -> "BatchedState":
        """One trial per row of explicit bit vectors."""
        return BatchedState(np.asarray(rows, dtype=np.uint8))

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------

    @property
    def trials(self) -> int:
        """Number of independent states in the batch."""
        return self.array.shape[0]

    @property
    def n_wires(self) -> int:
        """Number of wires per state."""
        return self.array.shape[1]

    def copy(self) -> "BatchedState":
        """An independent copy of the batch."""
        return BatchedState(self.array.copy())

    # ------------------------------------------------------------------
    # Evolution
    # ------------------------------------------------------------------

    def apply_gate(self, gate: Gate, wires: Sequence[int]) -> None:
        """Apply ``gate`` to every trial."""
        columns = list(wires)
        arity = len(columns)
        packed = np.zeros(self.trials, dtype=np.int64)
        for column in columns:
            packed = (packed << 1) | self.array[:, column]
        table = np.asarray(gate.table, dtype=np.int64)
        mapped = table[packed]
        for position, column in enumerate(columns):
            self.array[:, column] = (mapped >> (arity - 1 - position)) & 1

    def reset(self, wires: Sequence[int], value: int = 0) -> None:
        """Reset wires to ``value`` on every trial."""
        if not len(wires):
            raise SimulationError("reset requires at least one wire")
        self.array[:, list(wires)] = value

    def apply_operation(self, op: Operation) -> None:
        """Apply one noiseless circuit operation to every trial."""
        if op.is_reset:
            self.reset(op.wires, op.reset_value)
        else:
            assert op.gate is not None
            self.apply_gate(op.gate, op.wires)

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------

    def column(self, wire: int) -> np.ndarray:
        """The bit values of one wire across all trials."""
        return self.array[:, wire]

    def columns(self, wires: Sequence[int]) -> np.ndarray:
        """A ``(trials, len(wires))`` view of selected wires."""
        return self.array[:, list(wires)]

    def majority_of(self, wires: Sequence[int]) -> np.ndarray:
        """Per-trial majority vote over the selected wires."""
        if not len(wires):
            raise SimulationError("majority requires at least one wire")
        if len(wires) % 2 == 0:
            raise SimulationError("majority requires an odd number of wires")
        selected = self.columns(wires)
        return (selected.sum(axis=1) * 2 > len(wires)).astype(np.uint8)


def run_batched(circuit: Circuit, states: BatchedState) -> BatchedState:
    """Run a circuit noiselessly over a batch, mutating and returning it."""
    if states.n_wires != circuit.n_wires:
        raise SimulationError(
            f"batch has {states.n_wires} wires but circuit has "
            f"{circuit.n_wires}"
        )
    for op in circuit:
        states.apply_operation(op)
    return states
