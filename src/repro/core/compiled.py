"""Lowering reversible circuits into bit-parallel boolean programs.

A :class:`~repro.core.gate.Gate` is a permutation table; a bit-plane
engine wants each *output wire* of the gate expressed as a boolean
function of the *input wires*, so one gate application becomes a
handful of vectorised AND/OR/XOR/NOT operations on whole 64-trial
words.  This module performs that lowering once per gate:

* :func:`gate_plane_program` converts a gate's truth table into one
  *plane expression* per output position — a wire copy, an XOR-affine
  form (``c ^ x_i ^ x_j ...``, which covers X/CNOT/SWAP exactly), or a
  sum-of-minterms fallback that handles any gate of small arity;
* :class:`CompiledCircuit` flattens a :class:`~repro.core.circuit.Circuit`
  into a schedule of :class:`CompiledOp` records with the plane program,
  reset constants, and fault-injection metadata (the touched wires and
  whether the op draws the gate or the reset error rate) precomputed, so
  the Monte-Carlo inner loop does no per-op Python analysis;
* on top of the flat schedule, the lowering pass *fuses* maximal runs
  of consecutive operations that touch pairwise-disjoint wires and
  share an error class (gate vs reset) into :class:`FusedSlot` records.
  Within a slot, ops with an identical plane program are stacked into
  one :class:`SlotGroup` whose ``(k, arity)`` wire matrix lets the
  engine evaluate the program once over ``k`` gate instances via fancy
  indexing — the transversal gates and per-codeword recovery cycles of
  the fault-tolerant constructions fuse three wide this way.  Because
  the fused ops commute (disjoint wires), executing the slot as a block
  and injecting each op's faults afterwards is bit-identical to the
  sequential schedule; only the *order of RNG draws* changes.

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
loop over.  ``repro.verify`` proves that walk's transfer functions
equal the circuit's gate tables (``RV300``).

Plane-expression forms (tagged tuples):

``("copy", i)``
    output equals input position ``i`` unchanged;
``("affine", invert, positions)``
    output is the XOR of the input positions, complemented when
    ``invert`` is true;
``("anf", invert, monomials)``
    algebraic normal form: the XOR over ``monomials`` (tuples of input
    positions) of the AND of those positions, complemented when
    ``invert`` is true — e.g. the Toffoli target is ``x2 ^ x0·x1`` and
    3-bit majority is ``x0·x1 ^ x0·x2 ^ x1·x2``;
``("dnf", minterms)``
    output is the OR over ``minterms`` (packed input patterns, wire 0
    of the gate most significant) of the full AND of matched literals.

The lowering computes the ANF coefficients by a Möbius transform of
the output column and emits whichever of the nonlinear forms costs
fewer word operations (ANF wins for every gate in the library: it
needs no complemented literals).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from repro.core.circuit import Circuit
from repro.core.gate import Gate
from repro.errors import SimulationError
from repro.obs import counter

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.core.bitplane import BitplaneState

#: A full uint64 word of ones — the bit-plane "True" constant.
ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)

PlaneExpr = tuple


def _input_bit(pattern: int, arity: int, position: int) -> int:
    """Bit of ``pattern`` at wire ``position`` (position 0 = MSB)."""
    return (pattern >> (arity - 1 - position)) & 1


def _try_affine(outputs: list[int], arity: int) -> PlaneExpr | None:
    """An affine-over-GF(2) expression for the output column, if any."""
    constant = outputs[0]
    positions = [
        i for i in range(arity)
        if outputs[1 << (arity - 1 - i)] != constant
    ]
    for pattern in range(1 << arity):
        parity = constant
        for i in positions:
            parity ^= _input_bit(pattern, arity, i)
        if parity != outputs[pattern]:
            return None
    if constant == 0 and len(positions) == 1:
        return ("copy", positions[0])
    return ("affine", bool(constant), tuple(positions))


def _anf_monomials(outputs: list[int], arity: int) -> tuple[bool, tuple[tuple[int, ...], ...]]:
    """Möbius transform: ANF coefficients of the output column.

    Returns ``(invert, monomials)`` where each monomial is a tuple of
    input positions whose AND contributes to the XOR, and ``invert``
    absorbs the empty (constant-1) monomial.
    """
    coefficients = list(outputs)
    size = 1 << arity
    step = 1
    while step < size:
        for block in range(0, size, step * 2):
            for index in range(block, block + step):
                coefficients[index + step] ^= coefficients[index]
        step *= 2
    monomials = []
    invert = bool(coefficients[0])
    for pattern in range(1, size):
        if coefficients[pattern]:
            monomials.append(
                tuple(
                    position
                    for position in range(arity)
                    if _input_bit(pattern, arity, position)
                )
            )
    return invert, tuple(monomials)


def _nonlinear_expression(outputs: list[int], arity: int) -> PlaneExpr:
    """The cheaper of the ANF and minterm forms for a nonlinear column."""
    invert, monomials = _anf_monomials(outputs, arity)
    minterms = tuple(p for p, bit in enumerate(outputs) if bit)
    # Word-op estimates: ANF pays |m|-1 ANDs plus one XOR per monomial;
    # each minterm pays arity ANDs (literals, some complemented) plus
    # one OR.  Complement planes are shared, so they are not counted.
    anf_cost = sum(max(len(m) - 1, 0) + 1 for m in monomials) + int(invert)
    dnf_cost = len(minterms) * (arity + 1)
    if anf_cost <= dnf_cost:
        return ("anf", invert, monomials)
    return ("dnf", minterms)


@lru_cache(maxsize=None)
def gate_plane_program(gate: Gate) -> tuple[PlaneExpr, ...]:
    """One plane expression per output position of ``gate``.

    Cached per gate object (gates are frozen and hashable); the library
    gates therefore compile exactly once per process.
    """
    arity, table = gate.arity, gate.table
    program = []
    for position in range(arity):
        outputs = [
            _input_bit(table[pattern], arity, position)
            for pattern in range(1 << arity)
        ]
        expression = _try_affine(outputs, arity)
        if expression is None:
            expression = _nonlinear_expression(outputs, arity)
        program.append(expression)
    return tuple(program)


def apply_plane_program(
    program: tuple[PlaneExpr, ...], planes: list[np.ndarray]
) -> list[np.ndarray]:
    """Evaluate a gate's plane program on input planes.

    ``planes[i]`` holds the packed bits of the wire at gate position
    ``i``.  Returns freshly allocated output planes (never aliases the
    inputs, so callers may write them back over the input rows in any
    order).
    """
    arity = len(planes)
    negated: dict[int, np.ndarray] = {}

    def complement(position: int) -> np.ndarray:
        if position not in negated:
            negated[position] = ~planes[position]
        return negated[position]

    outputs = []
    for expression in program:
        tag = expression[0]
        if tag == "copy":
            outputs.append(planes[expression[1]].copy())
        elif tag == "affine":
            invert, positions = expression[1], expression[2]
            if positions:
                accumulator = planes[positions[0]].copy()
                for position in positions[1:]:
                    accumulator ^= planes[position]
            else:  # constant output: impossible for reversible gates
                accumulator = np.zeros_like(planes[0])
            if invert:
                np.invert(accumulator, out=accumulator)
            outputs.append(accumulator)
        elif tag == "anf":
            invert, monomials = expression[1], expression[2]
            accumulator = None
            scratch = None
            for monomial in monomials:
                if len(monomial) == 1:
                    term = planes[monomial[0]]
                    if accumulator is None:
                        accumulator = term.copy()
                    else:
                        accumulator ^= term
                    continue
                if accumulator is None:
                    # First AND monomial starts the accumulator fresh.
                    accumulator = planes[monomial[0]] & planes[monomial[1]]
                    for position in monomial[2:]:
                        accumulator &= planes[position]
                    continue
                # Later AND monomials reuse one scratch buffer instead
                # of allocating a temporary per monomial — this runs on
                # whole stacked batches, so allocations are the cost.
                if scratch is None:
                    scratch = np.bitwise_and(
                        planes[monomial[0]], planes[monomial[1]]
                    )
                else:
                    np.bitwise_and(
                        planes[monomial[0]], planes[monomial[1]], out=scratch
                    )
                for position in monomial[2:]:
                    scratch &= planes[position]
                accumulator ^= scratch
            if accumulator is None:  # constant: impossible for reversible gates
                accumulator = np.zeros_like(planes[0])
            if invert:
                np.invert(accumulator, out=accumulator)
            outputs.append(accumulator)
        else:  # "dnf"
            accumulator = np.zeros_like(planes[0])
            scratch = None
            for pattern in expression[1]:
                first = _input_bit(pattern, arity, 0)
                if scratch is None:
                    scratch = (planes[0] if first else complement(0)).copy()
                else:
                    scratch[...] = planes[0] if first else complement(0)
                for position in range(1, arity):
                    if _input_bit(pattern, arity, position):
                        scratch &= planes[position]
                    else:
                        scratch &= complement(position)
                accumulator |= scratch
            outputs.append(accumulator)
    return outputs


@dataclass(frozen=True)
class CompiledOp:
    """One schedule slot: a lowered gate or a reset, plus fault metadata.

    ``wires`` doubles as the fault-injection point — a failing op
    randomises exactly these wires — and ``is_reset`` selects which
    error rate of the noise model applies.
    """

    wires: tuple[int, ...]
    is_reset: bool
    reset_value: int = 0
    program: tuple[PlaneExpr, ...] | None = None


@dataclass(frozen=True, eq=False)
class SlotGroup:
    """Ops of one slot sharing a plane program, stacked for one apply.

    ``wire_matrix`` has shape ``(k, arity)``: row ``j`` holds the wires
    of the ``j``-th stacked gate instance.  Fancy-indexing the state's
    planes with a column of this matrix yields a ``(k, n_words)`` block,
    so the whole group costs one program evaluation regardless of ``k``.

    ``row_slices`` holds one ``slice`` per gate position whenever that
    position's wires form an arithmetic progression with positive step
    (the transversal and per-codeword patterns always do — stride 9),
    letting the engine gather and scatter plane *views* instead of
    fancy-indexed copies; positions that don't qualify carry ``None``.
    """

    program: tuple[PlaneExpr, ...]
    wire_matrix: np.ndarray
    row_slices: tuple[slice | None, ...] = ()


def _column_slices(wire_matrix: np.ndarray) -> tuple[slice | None, ...]:
    """A basic-slice view per wire-matrix column, where one exists."""
    k = wire_matrix.shape[0]
    slices: list[slice | None] = []
    for column in wire_matrix.T:
        if k == 1:
            slices.append(slice(int(column[0]), int(column[0]) + 1))
            continue
        step = int(column[1]) - int(column[0])
        if step > 0 and all(
            int(column[j + 1]) - int(column[j]) == step for j in range(k - 1)
        ):
            start = int(column[0])
            slices.append(slice(start, start + k * step, step))
        else:
            slices.append(None)
    return tuple(slices)


@dataclass(frozen=True, eq=False)
class FusedSlot:
    """A maximal run of consecutive, wire-disjoint, same-class ops.

    ``ops`` keeps the original order (it is the fault-injection
    metadata: each op still fails independently on its own wires);
    ``groups`` partitions gate ops by identical program for stacked
    execution; ``resets`` partitions reset ops by reset value so each
    value costs a single plane assignment.  ``op_group``/``op_row`` map
    a slot-op index to its group and its row in that group's wire
    matrix, so the noise layer can scatter one batched fault draw back
    onto the right gate instances.
    """

    is_reset: bool
    ops: tuple[CompiledOp, ...]
    groups: tuple[SlotGroup, ...] = ()
    resets: tuple[tuple[int, tuple[int, ...]], ...] = ()
    op_group: np.ndarray | None = None
    op_row: np.ndarray | None = None
    #: Ops of the same error class (gate vs reset) in slots before this
    #: one — the slot's offset into the circuit-level batched fault draw.
    class_offset: int = 0


def _build_slot(ops: list[CompiledOp], class_offset: int = 0) -> FusedSlot:
    # Group ops for stacked execution and stacked fault injection: gate
    # ops by identical plane program, reset ops by wire count (their
    # "program" key is the empty tuple — fault injection only needs the
    # uniform wire matrix).
    by_key: dict[tuple, list[tuple[int, ...]]] = {}
    op_group = np.empty(len(ops), dtype=np.intp)
    op_row = np.empty(len(ops), dtype=np.intp)
    order: list[tuple] = []
    for index, op in enumerate(ops):
        key: tuple = ((), len(op.wires)) if op.is_reset else op.program  # type: ignore[assignment]
        rows = by_key.setdefault(key, [])
        if not rows:
            order.append(key)
        op_group[index] = order.index(key)
        op_row[index] = len(rows)
        rows.append(op.wires)
    groups = tuple(
        SlotGroup(
            program=key if not ops[0].is_reset else (),
            wire_matrix=(matrix := np.asarray(by_key[key], dtype=np.intp)),
            row_slices=_column_slices(matrix),
        )
        for key in order
    )
    resets: tuple[tuple[int, tuple[int, ...]], ...] = ()
    if ops[0].is_reset:
        by_value: dict[int, list[int]] = {}
        for op in ops:
            by_value.setdefault(op.reset_value, []).extend(op.wires)
        resets = tuple((value, tuple(wires)) for value, wires in by_value.items())
    return FusedSlot(
        is_reset=ops[0].is_reset,
        ops=tuple(ops),
        groups=groups,
        resets=resets,
        op_group=op_group,
        op_row=op_row,
        class_offset=class_offset,
    )


def fuse_schedule(
    schedule: tuple[CompiledOp, ...], fuse: bool = True
) -> tuple[FusedSlot, ...]:
    """Greedily fuse consecutive disjoint same-class ops into slots.

    An op joins the open slot only when its wires are disjoint from
    every wire the slot already touches (so the fused block is
    order-independent) and it draws the same error rate class; anything
    else flushes the slot.  ``fuse=False`` flushes after every op —
    single-op slots through the same path, so the ``class_offset``
    bookkeeping has exactly one implementation.
    """
    slots: list[FusedSlot] = []
    pending: list[CompiledOp] = []
    touched: set[int] = set()
    class_counts = {False: 0, True: 0}

    def flush() -> None:
        slot = _build_slot(pending, class_offset=class_counts[pending[0].is_reset])
        class_counts[slot.is_reset] += len(slot.ops)
        slots.append(slot)

    for op in schedule:
        fits = (
            fuse
            and pending
            and op.is_reset == pending[0].is_reset
            and touched.isdisjoint(op.wires)
        )
        if not fits and pending:
            flush()
            pending, touched = [], set()
        pending.append(op)
        touched.update(op.wires)
    if pending:
        flush()
    return tuple(slots)


class CompiledCircuit:
    """A circuit flattened into a bit-parallel execution schedule.

    ``schedule`` is the flat per-op lowering; ``slots`` is the fused
    view executed by the engines (with ``fuse=False`` every op becomes
    its own single-op slot).
    """

    def __init__(self, circuit: Circuit, fuse: bool = True):
        self.n_wires = circuit.n_wires
        self.name = circuit.name
        self.fused = fuse
        schedule = []
        for op in circuit:
            if op.is_reset:
                schedule.append(
                    CompiledOp(op.wires, is_reset=True, reset_value=op.reset_value)
                )
            else:
                assert op.gate is not None
                schedule.append(
                    CompiledOp(
                        op.wires,
                        is_reset=False,
                        program=gate_plane_program(op.gate),
                    )
                )
        self.schedule: tuple[CompiledOp, ...] = tuple(schedule)
        self.n_gate_ops = sum(1 for op in schedule if not op.is_reset)
        self.n_reset_ops = len(schedule) - self.n_gate_ops
        self.slots: tuple[FusedSlot, ...] = fuse_schedule(self.schedule, fuse=fuse)

    def __len__(self) -> int:
        return len(self.schedule)

    def apply_slot(self, state: "BitplaneState", index: int) -> None:
        """Apply fused slot ``index`` of the schedule to ``state``.

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
                state.apply_program_stacked(
                    group.program, group.wire_matrix, group.row_slices
                )

    def run(self, state: "BitplaneState") -> "BitplaneState":
        """Run the schedule noiselessly, mutating and returning ``state``."""
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


#: Default entry bound of the process-wide compile cache.  Sweeps and
#: bisections reuse a handful of circuits; the bound only matters for
#: long-lived processes streaming many *distinct* circuits (e.g. the
#: random-circuit differential suites), where it caps memory at a few
#: hundred compiled programs via least-recently-used eviction.
COMPILE_CACHE_MAX_ENTRIES = 256


# Process-wide compile-cache metrics (repro.obs).  Dual-accounted:
# each CompileCache instance keeps its own ints (the stats()/clear()
# contract existing callers and tests rely on) while the registry
# counters aggregate monotonically across every instance and never
# reset with the cache.
_CACHE_HITS = counter("compile.cache.hit")
_CACHE_MISSES = counter("compile.cache.miss")


class CompileCache:
    """Content-keyed LRU cache of :class:`CompiledCircuit` with counters."""

    def __init__(self, max_entries: int = COMPILE_CACHE_MAX_ENTRIES) -> None:
        self._entries: dict[tuple, CompiledCircuit] = {}
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0

    def get(self, circuit: Circuit, fuse: bool) -> CompiledCircuit:
        # The public content key plus the fusion flag: two circuits
        # built independently but op-for-op identical share one cache
        # entry, while any mutation misses; fused and unfused programs
        # are distinct entries.
        key = (circuit.content_key(), fuse)
        cached = self._entries.get(key)
        if cached is not None:
            self.hits += 1
            _CACHE_HITS.inc()
            # dicts iterate in insertion order; re-inserting keeps the
            # eviction order least-recently-used.
            self._entries[key] = self._entries.pop(key)
            return cached
        self.misses += 1
        _CACHE_MISSES.inc()
        compiled = CompiledCircuit(circuit, fuse=fuse)
        self._entries[key] = compiled
        while len(self._entries) > self.max_entries:
            self._entries.pop(next(iter(self._entries)))
        return compiled

    def clear(self) -> None:
        self._entries.clear()
        self.hits = 0
        self.misses = 0

    def stats(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "size": len(self._entries),
        }


#: The process-wide cache used by :func:`compile_circuit`.
_COMPILE_CACHE = CompileCache()


def compile_circuit(
    circuit: Circuit, fuse: bool = True, cache: bool = True
) -> CompiledCircuit:
    """Compile ``circuit``, reusing the process-wide cache.

    ``cache=False`` recompiles; results are bit-identical either way —
    the cache only skips redundant lowering.  ``fuse=False`` builds the
    single-op-slot reference schedule (its own cache entry).
    """
    if not cache:
        return CompiledCircuit(circuit, fuse=fuse)
    return _COMPILE_CACHE.get(circuit, fuse)


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


def compile_cache_stats() -> dict[str, int]:
    """Hit/miss/size counters of the process-wide compile cache."""
    return _COMPILE_CACHE.stats()


def clear_compile_cache() -> None:
    """Empty the process-wide compile cache and zero its counters."""
    _COMPILE_CACHE.clear()
