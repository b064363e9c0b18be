"""Lowering reversible circuits into bit-parallel in-place cascades.

A :class:`~repro.core.gate.Gate` is a permutation table; a bit-plane
engine wants it as a few vectorised AND/XOR/NOT passes over whole
64-trial words.  The paper's own constructions show the form: Figure 1
builds ``MAJ`` from two CNOTs and a Toffoli, each of which updates one
wire in place by XORing in an AND of the others.  This module performs
that lowering once per gate:

* :func:`gate_cascade` synthesises a gate's *cascade* (see below) from
  its truth table;
* :class:`CompiledCircuit` lowers each operation of a
  :class:`~repro.core.circuit.Circuit` to a :class:`CompiledOp` record
  with the cascade, reset constants, and fault-injection metadata (the
  touched wires and whether the op draws the gate or the reset error
  rate) precomputed, so the Monte-Carlo inner loop does no per-op
  Python analysis;
* the lowering pass *fuses* maximal runs of consecutive operations
  that touch pairwise-disjoint wires and share an error class (gate vs
  reset) into :class:`FusedSlot` records, which are the compiled
  program's only record of its ops.  Within a slot, ops with an
  identical cascade are stacked into one :class:`SlotGroup` whose
  ``(k, arity)`` wire matrix is applied as one unit — the transversal
  gates and per-codeword recovery cycles of the fault-tolerant
  constructions fuse three wide this way — and the slot's *run table*
  says which slot ops each group's rows are.  Because the fused ops
  commute (disjoint wires), executing the slot as a block and injecting
  each op's faults afterwards is bit-identical to applying the ops one
  by one; only the *order of RNG draws* changes.

Compiled programs are cached process-wide by :func:`compile_circuit`,
keyed on circuit *content* (wire count plus the exact operation
sequence; gates and operations are frozen dataclasses, so equal-content
circuits hash equal even when rebuilt from scratch).  Re-evaluating the
same circuit at different noise levels — every bisection step of the
threshold finder, every sweep point — therefore lowers it exactly once
per process.  Every noisy run compiles fused and cached; the unfused
form (``fuse=False``: every op its own single-op slot) and uncached
compiles exist only as references for the verifier and the tests.

A compiled circuit executes itself on a
:class:`~repro.core.bitplane.BitplaneState` (which stores 64 trials per
uint64 word): :meth:`CompiledCircuit.apply_slot` is the one slot walk,
which :meth:`CompiledCircuit.run` and the Monte-Carlo fault kernel both
loop over, and :meth:`~repro.core.bitplane.BitplaneState.apply_cascade`
is the one gate apply.  ``repro.verify`` proves each cascade composes
to the gate table's ANF (``RV100``) and that walk's transfer functions
equal the circuit's gate tables (``RV300``).

A cascade is a tuple of single-target steps ``(target, invert,
monomials)``: the plane at gate position ``target`` is XORed, in
place, with the AND of each monomial's positions (never ``target``
itself), then complemented when ``invert`` is true.  X is
``((0, True, ()),)``, CNOT is ``((1, False, ((0,),)),)``, the Toffoli
is ``((2, False, ((0, 1),)),)`` and ``MAJ`` is exactly Figure 1:
``((1, False, ((0,),)), (2, False, ((0,),)), (0, False, ((1, 2),)))``.
The steps come from transformation-based synthesis (Miller, Maslov &
Dueck, DAC 2003) run on the table and on its inverse, keeping the one
with fewer whole-block passes.  An identity gate lowers to ``()``.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from repro.core.circuit import Circuit
from repro.core.gate import Gate, invert_table
from repro.errors import SimulationError
from repro.obs.metrics import counter

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.core.bitplane import BitplaneState

#: A full uint64 word of ones — the bit-plane "True" constant.
ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)

#: One step of a lowered gate: ``(target, invert, monomials)``.  The
#: plane at gate position ``target`` is XORed with the AND of each
#: monomial's positions, then complemented when ``invert`` is true.  No
#: monomial contains ``target``, so every step is its own inverse.
PlaneStep = tuple[int, bool, tuple[tuple[int, ...], ...]]

#: A lowered gate: its steps, applied in order and in place.
Cascade = tuple[PlaneStep, ...]


def _input_bit(pattern: int, arity: int, position: int) -> int:
    """Bit of ``pattern`` at wire ``position`` (position 0 = MSB)."""
    return (pattern >> (arity - 1 - position)) & 1


def _toffoli_gates(
    table: Sequence[int], arity: int
) -> list[tuple[int, tuple[int, ...]]]:
    """Transformation-based synthesis (Miller, Maslov & Dueck, DAC 2003).

    Walks the patterns ``i`` in increasing order and appends
    ``(target, controls)`` Toffoli gates at the output side until
    ``table[i]`` is ``i``: first it sets the bits that ``i`` has and the
    image lacks (controlled on the image's ones), then clears the bits
    the image has and ``i`` lacks (controlled on ``i``'s ones).  Every
    gate fires only on patterns above ``i``, so smaller patterns stay
    fixed.  The gates, applied in order after ``table``, give the
    identity.
    """
    images = list(table)
    gates: list[tuple[int, tuple[int, ...]]] = []

    def add(target: int, control_pattern: int) -> None:
        controls = tuple(
            p for p in range(arity) if _input_bit(control_pattern, arity, p)
        )
        gates.append((target, controls))
        flip = 1 << (arity - 1 - target)
        for index, image in enumerate(images):
            if image & control_pattern == control_pattern:
                images[index] = image ^ flip

    for pattern in range(1 << arity):
        for bit in range(arity):
            if pattern >> bit & 1 and not images[pattern] >> bit & 1:
                add(arity - 1 - bit, images[pattern])
        for bit in range(arity):
            if images[pattern] >> bit & 1 and not pattern >> bit & 1:
                add(arity - 1 - bit, pattern)
    return gates


def _merge_steps(gates) -> Cascade:
    """Fold consecutive same-target Toffoli gates into cascade steps.

    A gate without controls is a NOT (it toggles ``invert``); equal
    monomials on one target cancel.
    """
    steps: list[list] = []
    for target, controls in gates:
        if not steps or steps[-1][0] != target:
            steps.append([target, False, []])
        step = steps[-1]
        if not controls:
            step[1] = not step[1]
        elif controls in step[2]:
            step[2].remove(controls)
        else:
            step[2].append(controls)
    return tuple(
        (target, invert, tuple(monomials))
        for target, invert, monomials in steps
        if invert or monomials
    )


def _cascade_cost(cascade: Cascade) -> int:
    """Whole-block AND/XOR/NOT passes one application of ``cascade`` costs."""
    return sum(
        sum(len(monomial) for monomial in monomials) + invert
        for _target, invert, monomials in cascade
    )


@lru_cache(maxsize=None)
def gate_cascade(gate: Gate) -> Cascade:
    """The in-place XOR cascade that applies ``gate`` to its planes.

    Synthesised from the table and from its inverse; the cheaper result
    by :func:`_cascade_cost` wins, the table's on a tie.  Synthesis on
    the table finds gates that undo it, so they run in reverse; on the
    inverse they run as found.  Cached per gate object (gates are frozen
    and hashable), and a deterministic function of the table, so gates
    with equal tables get equal cascades.
    """
    arity, table = gate.arity, gate.table
    forward = _merge_steps(reversed(_toffoli_gates(table, arity)))
    backward = _merge_steps(_toffoli_gates(invert_table(table), arity))
    return forward if _cascade_cost(forward) <= _cascade_cost(backward) else backward


@dataclass(frozen=True)
class CompiledOp:
    """One lowered op: a gate's cascade or a reset, plus fault metadata.

    ``wires`` doubles as the fault-injection point — a failing op
    randomises exactly these wires — and ``is_reset`` selects which
    error rate of the noise model applies.
    """

    wires: tuple[int, ...]
    is_reset: bool
    reset_value: int = 0
    program: Cascade | None = None


@dataclass(frozen=True, eq=False)
class SlotGroup:
    """Ops of one slot sharing a cascade, stacked for one apply.

    ``wire_matrix`` has shape ``(k, arity)``: row ``j`` holds the wires
    of the ``j``-th stacked gate instance.

    ``row_slices`` holds one ``slice`` per gate position when every
    position's wires form an arithmetic progression with positive step
    (the transversal and per-codeword patterns always do — stride 9),
    and is ``()`` otherwise.  With slices the walk passes each step
    once over ``(k, n_words)`` plane views; without, it walks the
    cascade instance by instance on single-plane views.  Either way the
    planes are updated where they lie.
    """

    program: Cascade
    wire_matrix: np.ndarray
    row_slices: tuple[slice, ...] = ()


def _column_slices(wire_matrix: np.ndarray) -> tuple[slice, ...]:
    """A basic-slice view for every wire-matrix column, or ``()``."""
    k = wire_matrix.shape[0]
    slices: list[slice] = []
    for column in wire_matrix.T.tolist():
        step = column[1] - column[0] if k > 1 else 1
        if step <= 0 or any(b - a != step for a, b in zip(column, column[1:])):
            return ()
        slices.append(slice(column[0], column[0] + k * step, step))
    return tuple(slices)


@dataclass(frozen=True, eq=False)
class FusedSlot:
    """A maximal run of consecutive, wire-disjoint, same-class ops.

    ``ops`` keeps the original order (it is the fault-injection
    metadata: each op still fails independently on its own wires);
    ``groups`` partitions the ops by identical cascade for stacked
    execution; ``resets`` partitions reset ops by reset value so each
    value costs a single plane assignment.

    ``runs`` is the slot's run table: ``(group, start, stop)`` for
    stretches ``ops[start:stop]`` of consecutive ops of one group that
    tile the slot's ops, listed group by group and, within a group, in
    op order.  Group ``g``'s wire-matrix rows are exactly the ops of its
    runs, in that order, so the noise layer scatters one batched fault
    draw back onto the right gate instances by walking the runs.
    """

    is_reset: bool
    ops: tuple[CompiledOp, ...]
    groups: tuple[SlotGroup, ...] = ()
    resets: tuple[tuple[int, tuple[int, ...]], ...] = ()
    runs: tuple[tuple[int, int, int], ...] = ()


def _build_slot(ops: list[CompiledOp]) -> FusedSlot:
    # Group ops for stacked execution and stacked fault injection: gate
    # ops by arity and identical cascade (the pair fixes the table; the
    # cascade alone does not, since it omits untouched positions), reset
    # ops by wire count (their group program is empty — fault injection
    # only needs the uniform wire matrix).  Groups keep first-use order.
    members: dict[tuple, list[int]] = {}
    for index, op in enumerate(ops):
        members.setdefault((len(op.wires), op.program), []).append(index)
    groups: list[SlotGroup] = []
    runs: list[tuple[int, int, int]] = []
    for group, ((_arity, program), indices) in enumerate(members.items()):
        matrix = np.asarray([ops[i].wires for i in indices], dtype=np.intp)
        groups.append(
            SlotGroup(
                program=program or (),
                wire_matrix=matrix,
                row_slices=_column_slices(matrix),
            )
        )
        start = indices[0]
        for previous, index in zip(indices, indices[1:]):
            if index != previous + 1:
                runs.append((group, start, previous + 1))
                start = index
        runs.append((group, start, indices[-1] + 1))
    resets: tuple[tuple[int, tuple[int, ...]], ...] = ()
    if ops[0].is_reset:
        by_value: dict[int, list[int]] = {}
        for op in ops:
            by_value.setdefault(op.reset_value, []).extend(op.wires)
        resets = tuple((value, tuple(wires)) for value, wires in by_value.items())
    return FusedSlot(
        is_reset=ops[0].is_reset,
        ops=tuple(ops),
        groups=tuple(groups),
        resets=resets,
        runs=tuple(runs),
    )


def fuse_ops(ops: Iterable[CompiledOp], fuse: bool = True) -> tuple[FusedSlot, ...]:
    """Greedily fuse consecutive disjoint same-class ops into slots.

    An op joins the open slot only when its wires are disjoint from
    every wire the slot already touches (so the fused block is
    order-independent) and it draws the same error rate class; anything
    else flushes the slot.  ``fuse=False`` flushes after every op —
    single-op slots through the same path.
    """
    slots: list[FusedSlot] = []
    pending: list[CompiledOp] = []
    touched: set[int] = set()
    for op in ops:
        fits = (
            fuse
            and pending
            and op.is_reset == pending[0].is_reset
            and touched.isdisjoint(op.wires)
        )
        if not fits and pending:
            slots.append(_build_slot(pending))
            pending, touched = [], set()
        pending.append(op)
        touched.update(op.wires)
    if pending:
        slots.append(_build_slot(pending))
    return tuple(slots)


def _lower(op) -> CompiledOp:
    """One circuit operation as a :class:`CompiledOp`."""
    if op.is_reset:
        return CompiledOp(op.wires, is_reset=True, reset_value=op.reset_value)
    assert op.gate is not None
    return CompiledOp(op.wires, is_reset=False, program=gate_cascade(op.gate))


class CompiledCircuit:
    """A circuit lowered into fused slots for bit-parallel execution.

    ``slots`` is the whole program: the ops of the slots, concatenated,
    are the circuit's ops in order (with ``fuse=False`` every op becomes
    its own single-op slot).
    """

    def __init__(self, circuit: Circuit, fuse: bool = True):
        self.n_wires = circuit.n_wires
        self.name = circuit.name
        self.slots: tuple[FusedSlot, ...] = fuse_ops(map(_lower, circuit), fuse=fuse)
        self.n_gate_ops = sum(len(s.ops) for s in self.slots if not s.is_reset)
        self.n_reset_ops = sum(len(s.ops) for s in self.slots if s.is_reset)

    def __len__(self) -> int:
        return self.n_gate_ops + self.n_reset_ops

    def apply_slot(self, state: "BitplaneState", index: int) -> None:
        """Apply fused slot ``index`` to ``state``.

        The one slot walk: :meth:`run` loops over it, and the fault
        kernel of :mod:`repro.noise.monte_carlo` calls it once per slot
        and scatters the slot's pre-drawn faults in between.
        """
        slot = self.slots[index]
        if slot.is_reset:
            for value, wires in slot.resets:
                state.reset(wires, value)
        else:
            for group in slot.groups:
                state.apply_cascade(
                    group.program, group.wire_matrix, group.row_slices
                )

    def run(self, state: "BitplaneState") -> "BitplaneState":
        """Run every slot noiselessly, mutating and returning ``state``."""
        if state.n_wires != self.n_wires:
            raise SimulationError(
                f"bit-plane state has {state.n_wires} wires but compiled "
                f"circuit has {self.n_wires}"
            )
        for index in range(len(self.slots)):
            self.apply_slot(state, index)
        return state

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        label = f" {self.name!r}" if self.name else ""
        return (
            f"CompiledCircuit({self.n_wires} wires,{label} "
            f"{len(self)} ops in {len(self.slots)} slots)"
        )


# ----------------------------------------------------------------------
# Process-wide compile cache
# ----------------------------------------------------------------------


#: Entry bound of the process-wide compile cache.  Sweeps and
#: bisections reuse a handful of circuits; the bound only matters for
#: long-lived processes streaming many *distinct* circuits (e.g. the
#: random-circuit differential suites), where it caps memory at a few
#: hundred compiled programs via least-recently-used eviction.
COMPILE_CACHE_MAX_ENTRIES = 256


# Compile-cache traffic, counted process-wide (repro.obs).
_CACHE_HITS = counter("compile.cache.hit")
_CACHE_MISSES = counter("compile.cache.miss")

#: The process-wide compile cache: ``(content key, fuse)`` ->
#: program, in least-recently-used order (dicts iterate in insertion
#: order, and a hit re-inserts its entry).
_COMPILE_CACHE: dict[tuple, CompiledCircuit] = {}


def compile_circuit(
    circuit: Circuit, fuse: bool = True, cache: bool = True
) -> CompiledCircuit:
    """Compile ``circuit``, reusing the process-wide cache.

    ``cache=False`` recompiles; results are bit-identical either way —
    the cache only skips redundant lowering.  ``fuse=False`` builds the
    single-op-slot reference program (its own cache entry).  The key
    is the public content key plus the fusion flag: two circuits built
    independently but op-for-op identical share one entry, while any
    mutation misses.
    """
    if not cache:
        return CompiledCircuit(circuit, fuse=fuse)
    key = (circuit.content_key(), fuse)
    compiled = _COMPILE_CACHE.pop(key, None)
    if compiled is not None:
        _CACHE_HITS.inc()
    else:
        _CACHE_MISSES.inc()
        compiled = CompiledCircuit(circuit, fuse=fuse)
        if len(_COMPILE_CACHE) >= COMPILE_CACHE_MAX_ENTRIES:
            del _COMPILE_CACHE[next(iter(_COMPILE_CACHE))]
    _COMPILE_CACHE[key] = compiled
    return compiled


def warm_compile_cache(circuits: Sequence[Circuit]) -> None:
    """Pre-compile ``circuits`` into the process-wide cache.

    The worker warm path for pooled execution: passed (via
    :func:`functools.partial`, which pickles cleanly) as a process-pool
    ``initializer``, every worker compiles each distinct circuit
    exactly once up front, and every point it subsequently evaluates is
    a compile-cache *hit* — the pool never recompiles per point.
    """
    for circuit in circuits:
        compile_circuit(circuit)


def clear_compile_cache() -> None:
    """Empty the process-wide compile cache (the next compile misses)."""
    _COMPILE_CACHE.clear()
