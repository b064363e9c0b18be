"""Fault-aware peephole optimisation of reversible circuits.

Every operation of a circuit is a fault location — the paper's noise
model randomises the touched wires of a failing op with probability
``g`` — so removing redundant ops is not cosmetic: it removes fault
locations, and with them logical error rate.  :func:`optimize` runs a
fixed-point window scan with three rewrite families:

1. **identity removal** — gates whose table is the identity disappear;
2. **inverse-pair cancellation** — a gate directly followed (possibly
   across ops on *disjoint* wires, which commute with it exactly) by
   an inverse gate on the same wires cancels with it;
3. **database rewrites** — a contiguous window of gate ops whose
   exhaustive action has a cheaper equivalent in an
   :class:`~repro.synth.database.IdentityDatabase` is spliced out for
   that equivalent (no-op windows are deleted outright).

The objective is the op count, which is the fault-location count: a
database rewrite must make its window strictly shorter.

**Verification contract.**  No rewrite is ever applied on faith: an
inverse-pair cancellation re-checks ``b∘a = identity`` over all
``2**arity`` patterns, and a database rewrite recomputes the
replacement's action over all ``2**wires`` patterns and compares it
with the window's — even though the database already verified its
members.  A rewrite that fails verification raises instead of
degrading silently.  Reset operations take part in none of this: they
are not permutations, so they are never moved, merged, or rewritten
(disjoint-wire gates may still cancel *across* them, which is exact).

``optimize`` terminates because every applied rewrite strictly
decreases the op count, and is idempotent because a fixed point by
definition admits no further rewrite; both properties are pinned by
the property tests.  The paper's own constructions (Figure-1 MAJ,
Figure-5 SWAP3, the decomposition catalogue) are already minimal and
pass through untouched.

:func:`inflate` is the adversary: it pads a circuit with
provably-identity redundancy (commuting X pairs around every gate,
cancelling SWAP pairs after resets, MAJ-family gates expanded into
their Figure-1 decompositions) without changing its action — the
workload the redundant-recovery-cycle experiment feeds back through
``optimize`` and the stacked Executor.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.coding.concatenation import gamma_census
from repro.core import library
from repro.core.circuit import Circuit, Operation
from repro.core.decompositions import maj_circuit, maj_inv_circuit
from repro.core.truth_table import circuit_permutation
from repro.errors import SynthesisError
from repro.synth.database import IdentityDatabase

#: Longest contiguous gate window offered to the database.
DEFAULT_MAX_WINDOW = 4

#: Windows touching more wires than this are never evaluated (the
#: exhaustive window action grows as 2**wires).
MAX_WINDOW_WIRES = 6


@dataclass(frozen=True)
class OptimizationReport:
    """What :func:`optimize` did to one circuit.

    ``verified_rewrites`` counts the exhaustive equivalence checks that
    passed — by the verification contract it equals ``cancellations +
    identity_removals + database_rewrites`` (every applied rewrite was
    proved; nothing is applied unchecked).  The location counts are
    :func:`~repro.coding.concatenation.gamma_census` of the input and
    the output.
    """

    original: Circuit
    circuit: Circuit
    passes: int
    identity_removals: int
    cancellations: int
    database_rewrites: int
    verified_rewrites: int
    locations_before: dict[str, int]
    locations_after: dict[str, int]

    @property
    def locations_removed_fraction(self) -> float:
        """Fraction of fault locations the optimisation removed."""
        before = self.locations_before["total"]
        if before == 0:
            return 0.0
        return 1.0 - self.locations_after["total"] / before


def _composes_to_identity(first: Operation, second: Operation) -> bool:
    """Exhaustive check that ``second`` undoes ``first`` on its wires."""
    if first.wires != second.wires:
        return False
    assert first.gate is not None and second.gate is not None
    if first.gate.arity != second.gate.arity:
        return False
    a, b = first.gate.table, second.gate.table
    return all(b[a[pattern]] == pattern for pattern in range(len(a)))


def _cancel_pass(ops: list[Operation]) -> tuple[int, int]:
    """One in-place identity-removal + inverse-cancellation sweep.

    Returns ``(identity_removals, cancellations)``.  The partner scan
    walks forward only across ops on wires disjoint from the
    candidate's — those commute with it exactly, so deleting the pair
    is equivalent to first commuting them adjacent and then cancelling.
    """
    identity_removals = 0
    cancellations = 0
    index = 0
    while index < len(ops):
        op = ops[index]
        if op.is_reset:
            index += 1
            continue
        assert op.gate is not None
        if op.gate.is_identity():
            del ops[index]
            identity_removals += 1
            continue
        wires = set(op.wires)
        cancelled = False
        for partner in range(index + 1, len(ops)):
            if wires.isdisjoint(ops[partner].wires):
                continue
            if not ops[partner].is_reset and _composes_to_identity(
                op, ops[partner]
            ):
                del ops[partner]
                del ops[index]
                cancellations += 1
                cancelled = True
            break
        if not cancelled:
            index += 1
    return identity_removals, cancellations


def _compact_window(
    ops: list[Operation], start: int, width: int, n_wires: int
) -> tuple[tuple[int, ...], Circuit] | None:
    """``(sorted touched wires, window on compact wires)`` or ``None``.

    ``None`` when the window is not a pure gate run or touches more
    wires than the database covers.  The window is embedded on the
    lowest indices of the database's full wire count, so narrower
    windows still probe the database.
    """
    touched: set[int] = set()
    for op in ops[start:start + width]:
        if op.is_reset:
            return None
        touched.update(op.wires)
    if len(touched) > n_wires or len(touched) > MAX_WINDOW_WIRES:
        return None
    wires = tuple(sorted(touched))
    to_compact = {wire: position for position, wire in enumerate(wires)}
    window = Circuit(n_wires)
    for op in ops[start:start + width]:
        window.append(op.remapped(to_compact))
    return wires, window


def _window_pass(
    ops: list[Operation], database: IdentityDatabase
) -> tuple[int, int]:
    """One database-rewrite sweep; returns ``(rewrites, verified)``."""
    rewrites = 0
    verified = 0
    index = 0
    while index < len(ops):
        replaced = False
        for width in range(min(DEFAULT_MAX_WINDOW, len(ops) - index), 1, -1):
            located = _compact_window(ops, index, width, database.n_wires)
            if located is None:
                continue
            wires, window = located
            mapping = circuit_permutation(window)
            replacement = database.best(mapping)
            if replacement is None:
                continue
            if not replacement.wires_touched() <= set(range(len(wires))):
                continue  # replacement would spill past the window's wires
            if len(replacement) >= width:
                continue
            # The verification contract: prove both actions equal by
            # exhaustion before splicing, independent of what the
            # database recorded.
            if circuit_permutation(replacement) != mapping:
                raise SynthesisError(
                    "database rewrite failed equivalence verification; "
                    "refusing to splice"
                )
            verified += 1
            from_compact = dict(enumerate(wires))
            ops[index:index + width] = [
                op.remapped(from_compact) for op in replacement
            ]
            rewrites += 1
            replaced = True
            break
        if not replaced:
            index += 1
    return rewrites, verified


def optimize_report(
    circuit: Circuit, database: IdentityDatabase | None = None
) -> OptimizationReport:
    """Run :func:`optimize` and report what happened."""
    locations_before = gamma_census(circuit)
    ops = list(circuit.ops)
    max_passes = len(ops) + 4
    identity_removals = cancellations = database_rewrites = verified = 0
    passes = 0
    while True:
        if passes >= max_passes:
            raise SynthesisError(
                f"peephole optimisation did not reach a fixed point in "
                f"{max_passes} passes; the op count is not decreasing"
            )  # pragma: no cover - every rewrite strictly lowers the op count
        passes += 1
        removed, cancelled = _cancel_pass(ops)
        identity_removals += removed
        cancellations += cancelled
        # Identity removal is verified by Gate.is_identity (the full
        # table) and cancellation by _composes_to_identity — both
        # exhaustive over the pair's 2**arity patterns.
        verified += removed + cancelled
        rewrites = 0
        if database is not None:
            rewrites, checked = _window_pass(ops, database)
            database_rewrites += rewrites
            verified += checked
        if not (removed or cancelled or rewrites):
            break
    optimized = Circuit(circuit.n_wires, name=circuit.name)
    for op in ops:
        optimized.append(op)
    return OptimizationReport(
        original=circuit,
        circuit=optimized,
        passes=passes,
        identity_removals=identity_removals,
        cancellations=cancellations,
        database_rewrites=database_rewrites,
        verified_rewrites=verified,
        locations_before=locations_before,
        locations_after=gamma_census(optimized),
    )


def optimize(
    circuit: Circuit, database: IdentityDatabase | None = None
) -> Circuit:
    """The circuit with every verified peephole rewrite applied.

    Without a ``database`` only the self-contained rewrites run
    (identity removal, inverse-pair cancellation); with one, window
    actions are also looked up for cheaper equivalents.  The result
    has the same action as the input — every rewrite is verified by
    exhaustion before it is applied — and running ``optimize`` on its
    own output is a no-op (fixed point).
    """
    return optimize_report(circuit, database).circuit


# ----------------------------------------------------------------------
# The adversary: provably redundant inflation
# ----------------------------------------------------------------------


def inflate(circuit: Circuit) -> Circuit:
    """A behaviourally identical circuit with redundant fault locations.

    Three redundancy families, each an exact identity:

    * MAJ/MAJ⁻¹ gates are replaced by their Figure-1 CNOT·CNOT·Toffoli
      decompositions (3 fault locations where one stood);
    * every gate op is wrapped in a pair of X gates on a wire it does
      not touch (the pair commutes with the op and multiplies to the
      identity);
    * every reset is followed by a doubled SWAP on two of the wires it
      just initialised.

    The result is the benchmark workload for :func:`optimize`, which
    must strip all of it back out.
    """
    expanded: list[Operation] = []
    for op in circuit:
        if op.is_gate and op.gate is not None and (
            op.gate.name in library.MAJ_NAMES
        ):
            body = maj_circuit() if op.gate.name == "MAJ" else maj_inv_circuit()
            mapping = dict(enumerate(op.wires))
            expanded.extend(body_op.remapped(mapping) for body_op in body)
        else:
            expanded.append(op)

    inflated = Circuit(
        circuit.n_wires,
        name=f"{circuit.name}+redundant" if circuit.name else "redundant",
    )
    for op in expanded:
        pad_wire = next(
            (w for w in range(circuit.n_wires) if w not in op.wires), None
        )
        if op.is_gate and pad_wire is not None:
            inflated.x(pad_wire)
            inflated.append(op)
            inflated.x(pad_wire)
        else:
            inflated.append(op)
        if op.is_reset and len(op.wires) >= 2:
            a, b = op.wires[0], op.wires[1]
            inflated.swap(a, b)
            inflated.swap(a, b)
    return inflated
