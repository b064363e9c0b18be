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
resolves both classes' sites in op order in one bookkeeping pass,
then draws ONE flat block of replacement words covering every (slot,
group) cell in slot order.  NumPy integer draws are stream-consistent
under splitting, so a point's stream never depends on what it is
stacked with: every stacked point is bit-identical to a solo run.

Importing this module sets one heap policy for the whole process, once:
glibc keeps 8 MiB of slack at the heap top (``M_TOP_PAD``) and maps
only arrays of 32 MiB or more, so the arrays one stacked group frees
are reused by the next instead of being trimmed and faulted back in —
while they fit in the pad: a warm 100k-trial mc-threshold search takes
no minor faults, a 300k-trial one still about 5k.  It changes no
result and is a no-op where the C library has no ``mallopt``.

All entry points take an explicit seed or
:class:`numpy.random.Generator`, so every experiment is reproducible
bit for bit; ``tests/noise/test_engine_determinism`` pins the stream.
Scoring a run is not this module's job: the observables of
:mod:`repro.runtime.spec` turn the final planes into one packed
failure plane.
"""

from __future__ import annotations

import ctypes
import math
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter

import numpy as np

from repro.core.bitplane import BitplaneState, popcount_words, words_for
from repro.core.circuit import Circuit
from repro.core.compiled import compile_circuit
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

#: glibc ``mallopt`` parameter numbers (``malloc.h``).
_M_TOP_PAD = -2
_M_MMAP_THRESHOLD = -3

#: Bytes glibc adds to every heap growth and keeps at every trim: the
#: smallest round pad after which a warm 100k-trial benchmark search
#: panel takes no minor faults (5 MiB left 4k, 6 MiB 8-18; 2-CPU
#: x86_64, glibc 2.36).  Larger groups still fault what passes it back
#: in: about 5k minor faults per warm 300k-trial search.
_HEAP_TOP_PAD = 8 << 20

#: Setting ``M_TOP_PAD`` also freezes glibc's mmap threshold at its
#: 128 KiB start, so an array larger than the heap top's slack would be
#: mapped and faulted in afresh on every allocation: with a 12 MiB pad
#: alone a 1M-trial search took 2.4x the faults of no policy.  32 MiB
#: is the ceiling glibc's own dynamic threshold climbs to on 64-bit
#: hosts.
_HEAP_MMAP_THRESHOLD = 32 << 20


def _keep_heap_top() -> None:
    """Set the heap policy described in the module docstring."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):  # no C library or no mallopt
        return
    mallopt(_M_MMAP_THRESHOLD, _HEAP_MMAP_THRESHOLD)
    mallopt(_M_TOP_PAD, _HEAP_TOP_PAD)


_keep_heap_top()


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

    Faults are resolved over one *merged* virtual op axis — gate ops
    followed by reset ops, the solo draw order — and a point's sites
    stay in that op order.  ``op_wires`` is the ``(width, ops)`` merged
    op -> wire table padded to the widest arity (each run's scatter
    slices off its own arity's rows, so padding is never read).

    Injection walks the slots' run tables (:class:`FusedSlot`
    ``runs``), offset into merged op order and listed slot by slot.
    Within a slot the runs already come group by group, each group's in
    op order — the order of the point's replacement block, one
    ``(arity, sites)`` slab per (slot, group) *cell*.  ``run_ops``
    holds each run's merged op range ``[start, stop)`` as a
    ``(2, runs)`` table, ``run_arity`` its wire count, ``run_cells``
    the range of its cell's runs (also ``(2, runs)``), and
    ``slot_runs`` each slot's first run with the run count appended.

    Built once per compiled program (cached on it by
    :func:`_stack_plan`) from the slots.
    """

    __slots__ = ("op_wires", "run_ops", "run_arity", "run_cells", "slot_runs")

    def __init__(self, compiled):
        slots = compiled.slots
        width = max(
            (g.wire_matrix.shape[1] for s in slots for g in s.groups), default=0
        )
        first_op = [0] * len(slots)
        op_wires: list[tuple[int, ...]] = []
        for is_reset in (False, True):  # the solo draw order
            for si, slot in enumerate(slots):
                if slot.is_reset == is_reset:
                    first_op[si] = len(op_wires)
                    op_wires.extend(
                        op.wires + (0,) * (width - len(op.wires))
                        for op in slot.ops
                    )
        self.op_wires = np.array(op_wires, dtype=np.int64).reshape(
            len(op_wires), width
        ).T.copy()
        run_ops: list[tuple[int, int]] = []
        run_cells: list[tuple[int, int]] = []
        self.run_arity: list[int] = []
        self.slot_runs = [0]
        for si, slot in enumerate(slots):
            base = first_op[si]
            for group, runs in groupby(slot.runs, key=itemgetter(0)):
                first = len(run_ops)
                run_ops.extend((base + start, base + stop) for _, start, stop in runs)
                count = len(run_ops) - first
                run_cells.extend([(first, len(run_ops))] * count)
                self.run_arity.extend([slot.groups[group].wire_matrix.shape[1]] * count)
            self.slot_runs.append(len(run_ops))
        self.run_ops = np.array(run_ops, dtype=np.int64).reshape(-1, 2).T.copy()
        self.run_cells = np.array(run_cells, dtype=np.int64).reshape(-1, 2).T.copy()


def _stack_plan(compiled) -> _StackPlan:
    """The compiled program's cached :class:`_StackPlan`.

    The plan is pure structure derived from the slots, so it
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
    ``sites`` is ``(indices, select, block, slabs)`` — the flat plane
    indices (``(width, sites)``) and packed selects in merged op order,
    the point's ONE flat replacement-word draw, and per run cell of the
    plan the ``(lo, hi, start, columns, column)`` of
    :func:`_run_slabs` — or ``None`` when the point drew no fault.
    """

    __slots__ = ("positions", "sites")

    def __init__(self):
        self.positions: np.ndarray | None = None
        self.sites: tuple | None = None


def _segment_sites(virtual, n_words, trials, n_ops):
    """Collapse sorted virtual fault positions into per-word segments.

    ``virtual >> 6`` is a flat (op, word) index; equal values form
    contiguous segments whose trial bits OR into one packed select
    word.  The select words come from differences of a modular
    cumulative sum (bits within a segment are distinct powers of two,
    so their OR *is* their sum, and uint64 wraparound cancels in the
    difference).  Op ``k``'s segments are ``bounds[k]:bounds[k + 1]``,
    one ``searchsorted`` of the op boundaries; padding bits beyond
    ``trials`` can only sit in an op's last segment and are masked off
    there.  Returns ``(segments, bounds, select, fault_plane)`` with
    ``segments`` the sorted flat (op, word) indices and ``fault_plane``
    the packed union of the faulted trials (point-local words, padding
    already clear), so the caller never materialises a per-trial array.
    ``virtual`` is overwritten: it becomes the flat word index, which
    saves the pass its largest temporary.
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
    segments = flat_words[ends]
    last = summed[ends]
    del summed, ends
    select = np.empty_like(last)
    select[0] = last[0]
    np.subtract(last[1:], last[:-1], out=select[1:])
    del last
    op_starts = np.arange(0, (n_ops + 1) * n_words, n_words, dtype=np.int64)
    bounds = np.searchsorted(segments, op_starts)
    if trials % 64:
        tails = bounds[1:][bounds[1:] > bounds[:-1]] - 1
        tails = tails[segments[tails] % n_words == n_words - 1]
        select[tails] &= np.uint64((1 << (trials % 64)) - 1)
    # Each (op, word) is one segment, so scattering the selects into a
    # zeroed (ops, words) block and OR-reducing its rows gives the fault
    # plane.  The block holds at most _PLANE_BLOCK_OPS op rows and is
    # never cleared: what earlier op blocks left in it is already ORed
    # into the plane.
    block = np.zeros(
        (min(_PLANE_BLOCK_OPS, int(segments[-1]) // n_words + 1), n_words),
        dtype=np.uint64,
    )
    flat_block = block.reshape(-1)
    fault_plane = np.zeros(n_words, dtype=np.uint64)
    bases = np.arange(0, segments[-1] + 1, block.size)
    block_bounds = np.searchsorted(segments, bases).tolist() + [segments.size]
    for base, start, stop in zip(bases.tolist(), block_bounds, block_bounds[1:]):
        if start == stop:
            continue
        flat_block[segments[start:stop] - base] = select[start:stop]
        fault_plane |= np.bitwise_or.reduce(block, axis=0)
    return segments, bounds, select, fault_plane


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
    one segmentation with per-op bounds, one fault plane, and one
    scatter-index build that repeats each op's wire row once per site.
    Returns ``(positions, indices, select, bounds, fault_plane)`` or
    ``None`` when nothing was drawn; ``indices`` (``(width, sites)``,
    merged op order) addresses the flat plane buffer of the whole
    stacked array, so the slot loop scatters with a bare take and
    store per run cell.  ``positions`` (the merged virtual axis) is
    ``None`` unless ``keep_positions``; intermediates are released as
    soon as they are consumed, since a dense pass over a long circuit
    makes every site array megabytes long.
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
    n_ops = plan.op_wires.shape[1]
    segments, bounds, select, fault_plane = _segment_sites(
        virtual, n_words, trials, n_ops
    )
    del virtual
    # Op k's sites hold segments k * n_words + word, so its row base
    # wire * stride + offset - k * n_words plus a segment is the site's
    # flat plane index.
    base = plan.op_wires * plane_stride
    base -= np.arange(0, n_ops * n_words, n_words, dtype=np.int64)
    base += word_offset
    indices = np.repeat(base, np.diff(bounds), axis=1)
    indices += segments
    return positions, indices, select, bounds, fault_plane


def _run_slabs(plan: _StackPlan, bounds: np.ndarray) -> tuple[list, int]:
    """Per run ``(lo, hi, start, columns, column)``, and the block size.

    ``lo:hi`` is the run's slice of the point's sites (``bounds`` are
    its per-op site bounds), ``start`` the word where its cell's
    ``(arity, columns)`` slab starts in the replacement block, and
    ``column`` the run's first column in that slab.
    """
    lo, hi = bounds[plan.run_ops]
    sites = hi - lo
    before = np.zeros(sites.size + 1, dtype=np.int64)
    np.cumsum(sites, out=before[1:])
    words = np.zeros_like(before)
    np.cumsum(sites * plan.run_arity, out=words[1:])
    first, end = plan.run_cells
    cell_before = before[first]
    slabs = zip(
        lo.tolist(),
        hi.tolist(),
        words[first].tolist(),
        (before[end] - cell_before).tolist(),
        (before[:-1] - cell_before).tolist(),
    )
    return list(slabs), int(words[-1])


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
    then ONE flat replacement-word draw covering every (slot, group)
    cell the point will inject, in slot order, and where each run
    cell's words sit in it (:func:`_run_slabs`).  Returns the resolved
    per-point sites and the per-point faulted-trial counts.
    ``keep_positions`` keeps each point's raw fault positions for
    per-trial counting; otherwise they are released as soon as the
    sites are resolved.
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
        point.positions, indices, select, bounds, fault_plane = drawn
        slabs, size = _run_slabs(plan, bounds)
        block = rng.integers(0, 2**64, size=size, dtype=np.uint64)
        point.sites = (indices, select, block, slabs)
        faulted.append(popcount_words(fault_plane))
    return points, faulted


def _inject_phase(states, compiled, plan, points) -> None:
    """Slot-loop phase of the kernel: apply every slot, then scatter.

    One apply per program slot over the whole stacked array, then one
    take and one fancy-index store per run cell for all points
    together; each point's run is a contiguous slice of its op-ordered
    sites and a column slice of its cell's slab, so interleaved groups
    need no sort.  A slot's ops touch disjoint wires, so its runs
    scatter in any order.  The reshape MUST
    alias the planes (a non-contiguous array would silently reshape
    into a copy and every store would write to a dead buffer);
    broadcast allocates contiguous, and this fails loudly — not via
    assert, which -O strips — if that invariant is ever broken.
    """
    if not states.planes.flags.c_contiguous:
        raise SimulationError(
            "the fault kernel requires C-contiguous planes; the flat "
            "scatter view would silently become a copy"
        )
    flat_planes = states.planes.reshape(-1)
    active = [point.sites for point in points if point.sites is not None]
    run_arity = plan.run_arity
    slot_runs = plan.slot_runs
    for si in range(len(compiled.slots)):
        compiled.apply_slot(states, si)
        if not active:
            continue
        for run in range(slot_runs[si], slot_runs[si + 1]):
            arity = run_arity[run]
            parts = []
            for site_indices, site_select, block, slabs in active:
                lo, hi, start, columns, column = slabs[run]
                if hi == lo:
                    continue
                slab = block[start:start + arity * columns].reshape(arity, columns)
                parts.append(
                    (
                        site_indices[:arity, lo:hi],
                        site_select[lo:hi],
                        slab[:, column:column + hi - lo],
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
            flat_planes[indices] = current


@dataclass
class NoisyResult:
    """Outcome of a noisy run."""

    states: BitplaneState
    fault_counts: np.ndarray  # faults injected per trial

    @property
    def trials(self) -> int:
        """Number of Monte-Carlo trials in the batch."""
        return self.states.trials


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
                f"{type(states).__name__}; build one with "
                f"BitplaneState.from_rows or BitplaneState.broadcast"
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
