"""Vectorised Monte-Carlo simulation under the gate-failure model.

A batch of trials evolves through a circuit on a
:class:`~repro.core.bitplane.BitplaneState`: each operation first acts
noiselessly on every trial, then a Bernoulli(``g``) draw selects the
trials whose touched wires are replaced with uniform random bits.  This
is exactly the paper's error model, vectorised across trials.  The
circuit is lowered once *per process* through the content-keyed cache
of :func:`~repro.core.compiled.compile_circuit`, 64 trials ride in each
uint64 word, consecutive disjoint ops execute as fused slots (identical
gates stacked into one vectorised apply), and faults come from the
stacked fault kernel below.

The stacked fault kernel (:class:`_StackPlan`, :func:`_draw_phase`,
:func:`_inject_phase`) is the only code that draws and scatters
faults.  It runs a *stack* of points over one plane array —
each point owns a word-aligned window of the trial axis — and is used
both by :class:`NoisyRunner` (a one-point stack on the caller's
states) and by the multi-point executor of :mod:`repro.runtime`.  Per
point it makes one gap-jumping draw per error class over an
``ops x padded_trials`` virtual axis (gate class, then reset class),
resolves both classes' sites in one bookkeeping pass, then draws ONE
flat block of replacement words covering every (slot, group) cell in
slot order.  NumPy integer draws are stream-consistent under
splitting, so a point's stream never depends on what it is stacked
with: every stacked point is bit-identical to a solo run.

All entry points take an explicit seed or
:class:`numpy.random.Generator`, so every experiment is reproducible
bit for bit; ``tests/noise/test_engine_determinism`` pins the stream.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.bitplane import BitplaneState, popcount_words, words_for
from repro.core.circuit import Circuit
from repro.core.compiled import compile_circuit
from repro.core.simulator import BatchedState
from repro.errors import SimulationError
from repro.noise.model import NoiseModel
from repro.noise.seeds import as_generator

#: Success probability at which :func:`_bernoulli_positions` switches
#: from geometric gap-jumping to a direct thresholded draw.  Gap
#: jumping draws each gap by inverting one standard exponential, about
#: 10 ns per *success* including the running sum, while the dense draw
#: costs one uniform per *trial* (about 3.7 ns; both measured on a
#: 2-CPU x86_64 container, NumPy 2.4), so gap jumping now wins up to
#: ``p`` near 0.35.  The switch stays at 0.25 anyway: which regime
#: draws a given ``p`` is part of the RNG stream contract, and every
#: frozen digest and threshold experiment sits far below it.
DENSE_PROBABILITY = 0.25

#: Op rows per dense block :func:`_segment_sites` ORs into the fault plane.
_PLANE_BLOCK_OPS = 64


def resolve_engine(engine: str, trials: int) -> str:
    """The only Monte-Carlo engine, ``"bitplane"``, whatever is asked.

    Kept only because the benchmark's provenance line calls it; delete
    it with the next benchmark change.
    """
    return "bitplane"


def _bernoulli_positions(
    rng: np.random.Generator,
    probability: float,
    trials: int,
    dense: bool | None = None,
) -> np.ndarray:
    """Sorted indices of successes among ``trials`` Bernoulli draws.

    Two regimes behind one contract (sorted, duplicate-free int64
    positions in ``[0, trials)``):

    * sparse (``p < DENSE_PROBABILITY``) — geometric gaps between
      successes, each the inversion of one standard exponential (the
      values and generator state of ``Generator.geometric``), so the
      cost is proportional to the expected ``trials * p`` successes;
    * dense — one vectorised uniform per trial thresholded against
      ``p``; cheaper once successes are no longer rare.

    ``dense`` forces a regime (used by the distribution-agreement
    tests); ``None`` selects by ``probability``.  This is the fault
    kernel's stream, so the regime switch changes the RNG stream
    at ``p >= DENSE_PROBABILITY`` — the frozen digests all sit in the
    sparse regime.
    """
    if trials == 0 or probability <= 0.0:
        return np.empty(0, dtype=np.int64)
    if probability >= 1.0:
        return np.arange(trials, dtype=np.int64)
    if dense is None:
        dense = probability >= DENSE_PROBABILITY
    if dense:
        return np.flatnonzero(rng.random(trials) < probability).astype(
            np.int64, copy=False
        )
    expected = trials * probability
    batch = int(expected + 4.0 * expected**0.5 + 16.0)
    scale = -math.log1p(-probability)
    chunks = []
    last = -1
    while True:
        # For p < 1/3, ``Generator.geometric(p)`` IS this inversion of
        # one standard exponential, so the gaps and the generator state
        # after them are the geometric draw's.  Clamping the exponential
        # at ``(trials + 1) * scale`` caps every gap near ``trials + 1``
        # and moves no position below ``trials``, so a tiny ``p`` can
        # neither overflow the division nor the int64 running sum.
        gaps = rng.standard_exponential(batch)
        np.minimum(gaps, (trials + 1) * scale, out=gaps)
        gaps /= scale
        np.ceil(gaps, out=gaps)
        positions = gaps.astype(np.int64)
        del gaps
        positions[0] += last
        np.cumsum(positions, out=positions)
        if positions[-1] >= trials:
            chunks.append(positions[:np.searchsorted(positions, trials)])
            break
        chunks.append(positions)
        last = int(positions[-1])
    return np.concatenate(chunks) if len(chunks) > 1 else chunks[0]


class _StackPlan:
    """Per-compiled-circuit injection plan of the stacked fault kernel.

    ``max_groups`` pads every slot to a uniform group axis so a flat
    ``slot * max_groups + group`` *global cell* index addresses any
    injection target; ``arity`` holds each global cell's wire count (0
    where the slot has fewer groups) as an int64 array.

    Faults are resolved over one *merged* virtual op axis — gate ops
    followed by reset ops, the solo draw order — whose cells are the
    class-local cells of the gate class followed by those of the reset
    class.  ``op_cell`` maps a merged op to its merged cell, ``op_wires``
    is the ``(width, ops)`` op -> wire table padded to the widest arity
    (each cell's scatter slices off its own ``arity`` rows, so padding
    is never read), ``bins`` is the merged cell grid for the per-cell
    prefix, ``cells`` maps merged cells to global cells, ``slot_cells``
    is each slot's first merged cell, and ``monotone`` records whether
    ``op_cell`` is already sorted (then the per-point stable sort is
    skipped — the transversal circuits always qualify).

    Built once per compiled program (cached on it by
    :func:`_stack_plan`) from the slot schedule.
    """

    __slots__ = (
        "max_groups", "arity", "op_cell", "op_wires", "bins", "cells",
        "slot_cells", "monotone",
    )

    def __init__(self, compiled):
        slots = compiled.slots
        self.max_groups = max_groups = max(
            (len(s.groups) for s in slots), default=1
        )
        self.arity = np.zeros(len(slots) * max_groups, dtype=np.int64)
        for si, slot in enumerate(slots):
            for gi, group in enumerate(slot.groups):
                self.arity[si * max_groups + gi] = group.wire_matrix.shape[1]
        width = int(self.arity.max(initial=0))
        cell_parts = [np.empty(0, dtype=np.int64)]
        wire_parts = [np.empty((0, width), dtype=np.int64)]
        global_parts = [np.empty(0, dtype=np.int64)]
        self.slot_cells = [0] * len(slots)
        cell_base = 0
        for is_reset in (False, True):  # the solo draw order
            class_slots = [
                (si, s) for si, s in enumerate(slots) if s.is_reset == is_reset
            ]
            if not class_slots:
                continue
            wires = np.zeros(
                (sum(len(s.ops) for _, s in class_slots), width),
                dtype=np.int64,
            )
            row = 0
            for slot_c, (si, s) in enumerate(class_slots):
                self.slot_cells[si] = cell_base + slot_c * max_groups
                cell_parts.append(
                    self.slot_cells[si] + s.op_group.astype(np.int64)
                )
                for g, r in zip(s.op_group, s.op_row):
                    matrix = s.groups[g].wire_matrix
                    wires[row, :matrix.shape[1]] = matrix[r]
                    row += 1
                global_parts.append(si * max_groups + np.arange(max_groups))
            wire_parts.append(wires)
            cell_base += len(class_slots) * max_groups
        self.op_cell = np.concatenate(cell_parts)
        self.op_wires = np.ascontiguousarray(np.concatenate(wire_parts).T)
        self.bins = np.arange(cell_base + 1, dtype=np.int64)
        self.cells = np.concatenate(global_parts)
        self.monotone = bool(np.all(np.diff(self.op_cell) >= 0))


def _stack_plan(compiled) -> _StackPlan:
    """The compiled program's cached :class:`_StackPlan`.

    The plan is pure structure derived from the slot schedule, so it
    rides on the compiled program: a bisection or sweep re-running one
    circuit builds it exactly once per process.
    """
    plan = getattr(compiled, "_stack_plan", None)
    if plan is None:
        plan = _StackPlan(compiled)
        compiled._stack_plan = plan
    return plan


class _PointSites:
    """One point's fully resolved fault sites and replacement words.

    ``positions`` is the point's sorted merged virtual fault axis
    (``op * padded_trials + trial``; what :class:`NoisyRunner`
    bincounts into per-trial fault counts), kept only on request.
    ``sites`` is ``(indices, select, prefix)`` — flat plane indices
    (``(width, m)``), packed selects, and the per-cell prefix (plain
    ints) over the merged cell axis, with sites sorted by merged cell.  ``block``/``block_bounds`` hold
    the point's ONE flat replacement-word draw, sliced per global cell
    in slot order.  All ``None``/empty when the point drew no fault.
    """

    __slots__ = ("positions", "sites", "block", "block_bounds")

    def __init__(self):
        self.positions: np.ndarray | None = None
        self.sites: tuple | None = None
        self.block: np.ndarray | None = None
        self.block_bounds: list[int] = []


def _segment_sites(virtual, n_words, trials):
    """Collapse sorted virtual fault positions into per-word segments.

    ``virtual >> 6`` is a flat (op, word) index; equal values form
    contiguous segments whose trial bits OR into one packed select
    word.  The select words come from differences of a modular
    cumulative sum (bits within a segment are distinct powers of two,
    so their OR *is* their sum, and uint64 wraparound cancels in the
    difference).  Padding bits beyond ``trials`` are masked off.
    Returns ``(op_of, word_of, select, fault_plane)`` with
    ``fault_plane`` the packed union of the faulted trials (point-local
    words, padding already clear), so the caller never materialises a
    per-trial array.  ``virtual`` is overwritten: it becomes the flat
    word index, which saves the pass its largest temporary.
    """
    summed = np.bitwise_and(virtual, 63).view(np.uint64)
    np.left_shift(np.uint64(1), summed, out=summed)
    np.cumsum(summed, out=summed)
    flat_words = np.right_shift(virtual, 6, out=virtual)
    is_last = np.empty(flat_words.size, dtype=bool)
    np.not_equal(flat_words[1:], flat_words[:-1], out=is_last[:-1])
    is_last[-1] = True
    ends = np.flatnonzero(is_last)
    del is_last
    affected = flat_words[ends]
    last = summed[ends]
    del summed, ends
    select = np.empty_like(last)
    select[0] = last[0]
    np.subtract(last[1:], last[:-1], out=select[1:])
    del last
    op_of = affected // n_words
    word_of = affected - op_of * n_words
    if trials % 64:
        select[word_of == n_words - 1] &= np.uint64((1 << (trials % 64)) - 1)
    # Each (op, word) is one segment, so scattering the selects into a
    # zeroed (ops, words) block and OR-reducing its rows gives the fault
    # plane.  The block holds at most _PLANE_BLOCK_OPS op rows and is
    # never cleared: what earlier op blocks left in it is already ORed
    # into the plane.
    block = np.zeros(
        (min(_PLANE_BLOCK_OPS, int(op_of[-1]) + 1), n_words), dtype=np.uint64
    )
    flat_block = block.reshape(-1)
    fault_plane = np.zeros(n_words, dtype=np.uint64)
    bases = np.arange(0, affected[-1] + 1, block.size)
    bounds = np.searchsorted(affected, bases).tolist() + [affected.size]
    for base, start, stop in zip(bases.tolist(), bounds, bounds[1:]):
        if start == stop:
            continue
        flat_block[affected[start:stop] - base] = select[start:stop]
        fault_plane |= np.bitwise_or.reduce(block, axis=0)
    return op_of, word_of, select, fault_plane


def _point_sites(
    rng: np.random.Generator,
    model: NoiseModel,
    compiled,
    plan: _StackPlan,
    trials: int,
    word_offset: int,
    plane_stride: int,
    keep_positions: bool,
) -> tuple | None:
    """Draw and fully resolve both error classes' faults for one point.

    The draws are one gap-jumping pass per class in the solo order
    (gate class, then reset class — the RNG stream contract); the
    bookkeeping runs ONCE over the merged virtual axis (gate ops
    followed by reset ops, so the concatenated positions stay sorted):
    one segmentation, one fault plane, one per-cell prefix, and one
    flat scatter-index build through the plan's padded wire table.
    Returns ``(positions, indices, select, prefix, fault_plane)`` or
    ``None`` when nothing was drawn; ``indices`` addresses the flat
    plane buffer of the whole stacked array, so the slot loop scatters
    with a bare take/put per slot group.  ``positions`` (the merged
    virtual axis) is ``None`` unless ``keep_positions``; intermediates
    are released as soon as they are consumed, since a dense pass over
    a long circuit makes every site array megabytes long.
    """
    n_words = words_for(trials)
    padded = n_words * 64
    chunks = []
    for error, count, base in (
        (model.gate_error, compiled.n_gate_ops, 0),
        (model.effective_reset_error, compiled.n_reset_ops,
         compiled.n_gate_ops * padded),
    ):
        if error <= 0.0 or count == 0:
            continue
        virtual = _bernoulli_positions(rng, error, count * padded)
        if virtual.size:
            if base:
                virtual += base
            chunks.append(virtual)
    if not chunks:
        return None
    virtual = np.concatenate(chunks) if len(chunks) > 1 else chunks[0]
    del chunks
    positions = virtual.copy() if keep_positions else None
    op_of, word_of, select, fault_plane = _segment_sites(
        virtual, n_words, trials
    )
    del virtual
    if word_offset:
        word_of += word_offset
    cell = plan.op_cell[op_of]
    if not plan.monotone:
        # Multi-group slots interleave their groups' sites; a stable
        # sort makes every cell's run contiguous without reordering
        # sites within a group (the solo scatter order).  ``op_of`` is
        # sorted, so a monotone op -> cell map needs no sort at all.
        order = np.argsort(cell, kind="stable")
        op_of = op_of[order]
        word_of = word_of[order]
        select = select[order]
        cell = cell[order]
    prefix = np.searchsorted(cell, plan.bins)
    del cell
    # In place: the index table is the pass's largest array.
    indices = plan.op_wires.take(op_of, axis=1)
    indices *= plane_stride
    indices += word_of
    return positions, indices, select, prefix, fault_plane


def _draw_phase(
    compiled,
    plan: _StackPlan,
    models: Sequence[NoiseModel],
    trials: Sequence[int],
    rngs: Sequence[np.random.Generator],
    offsets: Sequence[int],
    plane_stride: int,
    keep_positions: bool = False,
) -> tuple[list[_PointSites], list[int]]:
    """Fault-draw phase of the kernel for a stack of points.

    Point ``p`` runs ``trials[p]`` trials under ``models[p]`` in the
    word window starting at ``offsets[p]`` of planes ``plane_stride``
    words wide.  Per point: both classes' sites (:func:`_point_sites`),
    then ONE flat replacement-word draw covering every cell the point
    will inject.  Returns the resolved per-point sites and the
    per-point faulted-trial counts.  ``keep_positions`` keeps each
    point's raw fault positions for per-trial counting; otherwise they
    are released as soon as the sites are resolved.
    """
    points: list[_PointSites] = []
    faulted: list[int] = []
    for model, count, rng, offset in zip(models, trials, rngs, offsets):
        point = _PointSites()
        points.append(point)
        drawn = _point_sites(
            rng, model, compiled, plan, count, offset, plane_stride,
            keep_positions,
        )
        if drawn is None:
            faulted.append(0)
            continue
        point.positions, indices, select, prefix, fault_plane = drawn
        point.sites = (indices, select, prefix.tolist())
        cell_sites = np.zeros(plan.arity.size, dtype=np.int64)
        cell_sites[plan.cells] = np.diff(prefix)
        bounds = np.cumsum(cell_sites * plan.arity)
        point.block_bounds = [0] + bounds.tolist()
        point.block = rng.integers(
            0, 2**64, size=point.block_bounds[-1], dtype=np.uint64
        )
        faulted.append(popcount_words(fault_plane))
    return points, faulted


def _inject_phase(states, compiled, plan, points) -> None:
    """Slot-loop phase of the kernel: apply every slot, then scatter.

    One apply per program slot over the whole stacked array, pure
    slicing of each point's precomputed sites and word block, and one
    take/put per slot group for all points together.  The reshape MUST
    alias the planes (a non-contiguous array would silently reshape
    into a copy and every put would write to a dead buffer); broadcast
    allocates contiguous, and this fails loudly — not via assert,
    which -O strips — if that invariant is ever broken.
    """
    if not states.planes.flags.c_contiguous:
        raise SimulationError(
            "the fault kernel requires C-contiguous planes; the flat "
            "scatter view would silently become a copy"
        )
    flat_planes = states.planes.reshape(-1)
    active = [point for point in points if point.sites is not None]
    max_groups = plan.max_groups
    arity_of = plan.arity.tolist()
    for si, slot in enumerate(compiled.slots):
        compiled.apply_slot(states, si)
        if not active:
            continue
        cell_base = plan.slot_cells[si]
        global_base = si * max_groups
        for index in range(len(slot.groups)):
            cell = cell_base + index
            at = global_base + index
            arity = arity_of[at]
            parts = []
            for point in active:
                indices, select, prefix = point.sites
                start = prefix[cell]
                stop = prefix[cell + 1]
                if stop <= start:
                    continue
                block = point.block[
                    point.block_bounds[at]:point.block_bounds[at + 1]
                ]
                parts.append(
                    (
                        indices[:arity, start:stop],
                        select[start:stop],
                        block.reshape(arity, stop - start),
                    )
                )
            if not parts:
                continue
            if len(parts) == 1:
                indices, select, blocks = parts[0]
            else:
                indices = np.concatenate([p[0] for p in parts], axis=1)
                select = np.concatenate([p[1] for p in parts])
                blocks = np.concatenate([p[2] for p in parts], axis=1)
            current = flat_planes.take(indices)
            # c ^ ((c ^ b) & s) == (b & s) | (c & ~s), one pass less.
            flips = current ^ blocks
            flips &= select
            current ^= flips
            flat_planes.put(indices, current)


@dataclass
class NoisyResult:
    """Outcome of a noisy run."""

    states: BitplaneState
    fault_counts: np.ndarray  # faults injected per trial

    @property
    def trials(self) -> int:
        """Number of Monte-Carlo trials in the batch."""
        return self.states.trials

    def fraction_with_faults(self) -> float:
        """Fraction of trials that experienced at least one fault.

        A zero-trial batch has no faulted trials, so the fraction is
        0.0 (a plain mean would be NumPy's NaN-with-warning
        mean-of-empty).
        """
        if self.fault_counts.size == 0:
            return 0.0
        return float((self.fault_counts > 0).mean())


class NoisyRunner:
    """Runs circuits under a :class:`NoiseModel` on bit-plane states."""

    def __init__(
        self,
        model: NoiseModel,
        seed: int | np.random.Generator | None = None,
    ):
        self.model = model
        self.rng = as_generator(seed)

    def run(self, circuit: Circuit, states: BitplaneState) -> NoisyResult:
        """Evolve the batch through the circuit, mutating ``states``.

        Runs the fault kernel as a one-point stack on ``states``.
        Per-trial fault counts come from bincounting the trial of every
        drawn fault position (padding positions beyond ``trials`` fall
        out), so the kernel itself pays nothing for them.
        """
        if not isinstance(states, BitplaneState):
            raise SimulationError(
                f"NoisyRunner.run takes a BitplaneState, got "
                f"{type(states).__name__}; convert a BatchedState with "
                f"BitplaneState.from_batched"
            )
        if states.n_wires != circuit.n_wires:
            raise SimulationError(
                f"batch has {states.n_wires} wires but circuit has "
                f"{circuit.n_wires}"
            )
        compiled = compile_circuit(circuit)
        plan = _stack_plan(compiled)
        trials = states.trials
        points, _ = _draw_phase(
            compiled, plan, [self.model], [trials], [self.rng], [0],
            states.n_words, keep_positions=True,
        )
        _inject_phase(states, compiled, plan, points)
        fault_counts = np.zeros(trials, dtype=np.int64)
        positions = points[0].positions
        if positions is not None:
            trial_of = positions % (states.n_words * 64)
            fault_counts += np.bincount(
                trial_of[trial_of < trials], minlength=trials
            )
        return NoisyResult(states=states, fault_counts=fault_counts)

    def run_from_input(
        self, circuit: Circuit, input_bits: Sequence[int], trials: int
    ) -> NoisyResult:
        """Broadcast one input over ``trials`` and run noisily."""
        return self.run(circuit, BitplaneState.broadcast(input_bits, trials))


@dataclass(frozen=True)
class RepetitionFailurePredicate:
    """Failure predicate: majority over ``output_wires`` != ``expected``.

    A frozen callable rather than a closure so specs carrying it can
    cross a process-pool boundary.
    """

    output_wires: tuple[int, ...]
    expected: int

    def __call__(self, states: BatchedState | BitplaneState) -> np.ndarray:
        return states.majority_of(self.output_wires) != self.expected


@dataclass(frozen=True)
class AnyWireDiffersPredicate:
    """Failure predicate: any selected wire differs from expectation."""

    output_wires: tuple[int, ...]
    expected_bits: tuple[int, ...]

    def __call__(self, states: BatchedState | BitplaneState) -> np.ndarray:
        # Column by column: a row-wise ``any`` over a (trials, wires)
        # array is over ten times slower.
        differs = np.zeros(states.trials, dtype=bool)
        pairs = zip(self.output_wires, self.expected_bits, strict=True)
        for wire, bit in pairs:
            differs |= states.column(wire) != bit
        return differs


def repetition_failure_predicate(
    output_wires: Sequence[int], expected: int
) -> Callable[[BatchedState | BitplaneState], np.ndarray]:
    """Failure predicate: majority over ``output_wires`` != ``expected``."""
    return RepetitionFailurePredicate(tuple(output_wires), expected)


def any_wire_differs_predicate(
    output_wires: Sequence[int], expected_bits: Sequence[int]
) -> Callable[[BatchedState | BitplaneState], np.ndarray]:
    """Failure predicate: any selected wire differs from expectation."""
    return AnyWireDiffersPredicate(tuple(output_wires), tuple(expected_bits))
