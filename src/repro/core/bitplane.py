"""Bit-parallel batched simulation: 64 Monte-Carlo trials per word.

:class:`BitplaneState` is the state the Monte-Carlo engine runs on (the
per-trial reference is :func:`~repro.core.simulator.run`).  It stores
the batch *transposed and packed*: one row of uint64 words per wire,
where bit ``t`` of word ``j`` is the wire's value in trial ``64*j + t``.
A gate application is then a handful of bitwise operations on whole
planes, one pass per 64 trials.

Gates are executed through the cascades produced by
:mod:`repro.core.compiled` (in-place steps, each XORing ANDs of other
planes into one target plane), one fused slot group at a time through
:meth:`BitplaneState.apply_cascade`; a circuit runs with
``compile_circuit(circuit).run(state)``.
:meth:`BitplaneState.majority_of` is likewise fully bit-parallel via a
carry-save binary counter.  The observation API (``array``, ``column``,
``columns``, ``majority_of``) unpacks to ``(trials, ...)`` uint8, so
failure predicates and decoders read plain NumPy arrays.

Evolution applies to every trial: the fault kernel of
:mod:`repro.noise.monte_carlo` scatters its faults straight into the
planes, so no state method takes a per-trial mask.

Word layout note: packing goes through ``np.packbits(bitorder="little")``
viewed as native uint64, so trial-to-bit assignment is
platform-consistent on little-endian hosts (x86-64, AArch64) — the only
place layout is observable is the packed planes themselves; all public
observations unpack through the same convention.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.core.bits import validate_bits
from repro.core.compiled import ALL_ONES
from repro.errors import SimulationError

#: Trials carried per plane word.
WORD_BITS = 64


def words_for(trials: int) -> int:
    """Number of uint64 words needed to hold ``trials`` bits."""
    return (trials + WORD_BITS - 1) // WORD_BITS


def pack_bool(flags: np.ndarray | Sequence[int]) -> np.ndarray:
    """Pack a ``(trials,)`` 0/1 vector into ``(words_for(trials),)`` uint64."""
    flags = np.asarray(flags, dtype=np.uint8)
    packed_bytes = np.packbits(flags, bitorder="little")
    buffer = np.zeros(words_for(flags.size) * 8, dtype=np.uint8)
    buffer[: packed_bytes.size] = packed_bytes
    return buffer.view(np.uint64)


def unpack_words(words: np.ndarray, trials: int) -> np.ndarray:
    """Unpack uint64 words back into a ``(trials,)`` uint8 0/1 vector."""
    return np.unpackbits(
        np.ascontiguousarray(words).view(np.uint8), count=trials, bitorder="little"
    )


def popcount_words(words: np.ndarray) -> int:
    """Total number of set bits across packed uint64 words."""
    if hasattr(np, "bitwise_count"):
        return int(np.bitwise_count(words).sum(dtype=np.int64))
    # NumPy < 2.0 has no popcount ufunc; unpack instead.
    return int(
        np.unpackbits(np.ascontiguousarray(words).view(np.uint8))
        .sum(dtype=np.int64)
    )


def count_trial_ones(words: np.ndarray, trials: int) -> int:
    """Set bits among the first ``trials`` of a packed plane.

    Masks the padding bits of the final word before counting — the one
    place the padding invariant lives, shared by the per-state
    :meth:`BitplaneState.count_ones` and the stacked per-window decode.
    """
    if trials % WORD_BITS and words.size:
        words = words.copy()
        words[-1] &= np.uint64((1 << (trials % WORD_BITS)) - 1)
    return popcount_words(words)


class BitplaneState:
    """A batch of circuit states stored as ``(n_wires, n_words)`` planes.

    Constructors take bit vectors (:meth:`broadcast`, :meth:`zeros`,
    :meth:`from_rows`); evolution is :meth:`apply_cascade` and
    :meth:`reset`, which compiled circuits drive.
    """

    def __init__(self, planes: np.ndarray, trials: int):
        if planes.ndim != 2:
            raise SimulationError(
                f"bit-plane state must be 2-D (wires, words), got {planes.ndim}-D"
            )
        if planes.dtype != np.uint64:
            raise SimulationError(
                f"bit-plane state must be uint64, got {planes.dtype}"
            )
        if trials < 0:
            raise SimulationError(f"trials must be >= 0, got {trials}")
        if planes.shape[1] != words_for(trials):
            raise SimulationError(
                f"{trials} trials need {words_for(trials)} words per plane, "
                f"got {planes.shape[1]}"
            )
        self.planes = planes
        self._trials = trials

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @staticmethod
    def broadcast(input_bits: Sequence[int], trials: int) -> "BitplaneState":
        """All trials start from the same bit vector."""
        validate_bits(input_bits)
        planes = np.zeros((len(input_bits), words_for(trials)), dtype=np.uint64)
        for wire, bit in enumerate(input_bits):
            if bit:
                planes[wire] = ALL_ONES
        return BitplaneState(planes, trials)

    @staticmethod
    def zeros(n_wires: int, trials: int) -> "BitplaneState":
        """All trials start from the all-zero state."""
        return BitplaneState(
            np.zeros((n_wires, words_for(trials)), dtype=np.uint64), trials
        )

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int]]) -> "BitplaneState":
        """One trial per row of explicit bit vectors."""
        array = np.asarray(rows, dtype=np.uint8)
        if array.ndim != 2:
            raise SimulationError(
                f"rows must form a 2-D (trials, wires) array, got {array.ndim}-D"
            )
        if array.size and array.max() > 1:
            raise SimulationError("bit-plane state entries must be 0 or 1")
        trials, n_wires = array.shape
        planes = np.zeros((n_wires, words_for(trials)), dtype=np.uint64)
        for wire in range(n_wires):
            planes[wire] = pack_bool(array[:, wire])
        return BitplaneState(planes, trials)

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------

    @property
    def trials(self) -> int:
        """Number of independent states in the batch."""
        return self._trials

    @property
    def n_wires(self) -> int:
        """Number of wires per state."""
        return self.planes.shape[0]

    @property
    def n_words(self) -> int:
        """Words per plane (``ceil(trials / 64)``)."""
        return self.planes.shape[1]

    @property
    def array(self) -> np.ndarray:
        """The batch unpacked to ``(trials, wires)`` uint8 — observation only."""
        return self.columns(range(self.n_wires))

    # ------------------------------------------------------------------
    # Evolution
    # ------------------------------------------------------------------

    def apply_cascade(
        self,
        cascade: tuple,
        wire_matrix: np.ndarray,
        row_slices: tuple = (),
    ) -> None:
        """Apply one gate cascade to ``k`` stacked gate instances, in place.

        ``wire_matrix`` has shape ``(k, arity)``, one row of wires per
        instance.  Instances must touch pairwise disjoint wires
        (guaranteed by the fusion pass).  With ``row_slices`` (one slice
        per position, from :class:`~repro.core.compiled.SlotGroup`) each
        step is one pass over the ``(k, n_words)`` plane views of every
        instance; without, the cascade is walked instance by instance
        on single-plane views.  Either way the steps update the planes
        where they lie.
        """
        planes = self.planes
        if row_slices:
            instances = [[planes[view] for view in row_slices]]
        else:
            instances = [[planes[w] for w in row] for row in wire_matrix.tolist()]
        # One scratch buffer serves every AND monomial of every instance:
        # this runs on whole stacked batches, so allocations are the cost.
        scratch = None
        for blocks in instances:
            for target, invert, monomials in cascade:
                block = blocks[target]
                for monomial in monomials:
                    if len(monomial) == 1:
                        block ^= blocks[monomial[0]]
                        continue
                    if scratch is None:
                        scratch = np.bitwise_and(blocks[monomial[0]], blocks[monomial[1]])
                    else:
                        np.bitwise_and(blocks[monomial[0]], blocks[monomial[1]], out=scratch)
                    for position in monomial[2:]:
                        scratch &= blocks[position]
                    block ^= scratch
                if invert:
                    np.invert(block, out=block)

    def reset(self, wires: Sequence[int], value: int = 0) -> None:
        """Reset wires to ``value`` on every trial."""
        if not len(wires):
            raise SimulationError("reset requires at least one wire")
        self.planes[list(wires)] = ALL_ONES if value else np.uint64(0)

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------

    def column(self, wire: int) -> np.ndarray:
        """The bit values of one wire across all trials."""
        return unpack_words(self.planes[wire], self._trials)

    def columns(self, wires: Sequence[int]) -> np.ndarray:
        """A ``(trials, len(wires))`` uint8 array of selected wires."""
        rows = list(wires)
        out = np.empty((self._trials, len(rows)), dtype=np.uint8)
        for index, wire in enumerate(rows):
            out[:, index] = self.column(wire)
        return out

    def majority_plane(self, wires: Sequence[int]) -> np.ndarray:
        """Packed per-trial majority vote over the selected wires.

        Accumulates the selected planes into a carry-save binary counter
        and compares it against ``len(wires) // 2 + 1`` without ever
        unpacking a trial; returns the ``(n_words,)`` packed result
        (padding bits beyond ``trials`` are unspecified).
        """
        if not len(wires):
            raise SimulationError("majority requires at least one wire")
        if len(wires) % 2 == 0:
            raise SimulationError("majority requires an odd number of wires")
        counter: list[np.ndarray] = []  # little-endian sum planes
        for wire in wires:
            carry = self.planes[wire].copy()
            for index in range(len(counter)):
                counter[index], carry = (
                    counter[index] ^ carry,
                    counter[index] & carry,
                )
            counter.append(carry)
        threshold = len(wires) // 2 + 1
        greater = np.zeros(self.n_words, dtype=np.uint64)
        equal = np.full(self.n_words, ALL_ONES, dtype=np.uint64)
        for index in reversed(range(len(counter))):
            plane = counter[index]
            if (threshold >> index) & 1:
                equal = equal & plane
            else:
                greater |= equal & plane
                equal = equal & ~plane
        return greater | equal

    def majority_of(self, wires: Sequence[int]) -> np.ndarray:
        """Per-trial majority vote over the selected wires, bit-parallel."""
        return unpack_words(self.majority_plane(wires), self._trials)

    def count_ones(self, plane: np.ndarray) -> int:
        """Number of set *trial* bits in a packed plane (padding ignored)."""
        return count_trial_ones(plane, self._trials)
