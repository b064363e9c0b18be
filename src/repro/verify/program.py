"""Symbolic equivalence of compiled plane programs with the circuit.

The proof obligation: a :class:`~repro.core.compiled.CompiledCircuit`
executed slot by slot must compute exactly the function of the source
circuit executed op by op — for **all** inputs, not the sampled subset
a simulation-based suite happens to draw.  The check decomposes into
three layers, each symbolic over GF(2) polynomials
(:mod:`repro.core.anf`):

1. **Ops vs circuit** (``RV200``/``RV100``/``RV101``): the fused
   slots' ops, concatenated, must mirror the circuit op for op (wires,
   class, reset values), and every gate op's lowered cascade, composed
   step by step over GF(2), must equal the gate table's ANF — derived
   here by the *independent* Möbius inversion of
   :func:`repro.core.anf.table_anf`, never by the production lowering,
   so the lowering cannot vouch for itself.
2. **Slot structure** (``RV201``–``RV209``): every slot must be legal
   (one error class, pairwise-disjoint wires, in-bounds stacked
   indices, ``row_slices`` one faithful view per column or none at
   all, reset partitions matching the reset ops), and its run table — the one the fault kernel scatters
   by — must tile its ops group by group in op order, each group's
   rows and cascade being its run ops'.
3. **Slot transfer functions** (``RV300``): each slot, executed by the
   slot walk's two orders (a group with slice views passes each step
   over every row, any other group walks its cascade row by row, in
   place either way) over *fresh variables per wire*, must equal the
   same ops applied sequentially from the gate tables.

The fresh-variables-per-slot device is what keeps this linear: a
whole-circuit ANF composition grows exponentially on nonlinear
circuits, but a slot's transfer function is polynomial in its own
inputs only.  Equality of every slot's transfer plus the structural
reconciliation of layers 1–2 composes to whole-program equivalence,
because function composition respects equality slot by slot.
"""

from __future__ import annotations

from repro.core.anf import (
    cascade_step_poly,
    constant,
    substitute,
    table_anf,
    variable,
)
from repro.core.compiled import CompiledCircuit, compile_circuit
from repro.errors import VerificationError
from repro.verify.diagnostics import DiagnosticReport
from repro.verify.ir import circuit_label, verify_circuit

__all__ = [
    "apply_group_symbolic",
    "apply_ops_symbolic",
    "apply_slot_symbolic",
    "slot_op_partition",
    "verify_compiled",
]


# ----------------------------------------------------------------------
# Symbolic execution helpers
# ----------------------------------------------------------------------


def apply_ops_symbolic(polys: list, ops) -> None:
    """Sequentially apply circuit operations to a symbolic state.

    The *reference* semantics: every gate acts through its table's ANF
    (:func:`~repro.core.anf.table_anf`), resets write constants.
    Mutates ``polys`` (one polynomial per wire) in place.
    """
    for op in ops:
        if op.is_reset:
            for wire in op.wires:
                polys[wire] = constant(op.reset_value)
            continue
        gate = op.gate
        inputs = [polys[wire] for wire in op.wires]
        outputs = [
            substitute(poly, inputs)
            for poly in table_anf(gate.table, gate.arity)
        ]
        for wire, poly in zip(op.wires, outputs):
            polys[wire] = poly


def apply_slot_symbolic(polys: list, slot) -> None:
    """Apply one fused slot to a symbolic state, the engines' way.

    Mirrors :meth:`~repro.core.bitplane.BitplaneState.apply_cascade`
    exactly: groups run sequentially, and each group walks its cascade
    step by step over every stacked row.  Reset slots apply their value
    partitions.  Mutates ``polys`` in place; raises
    :class:`~repro.errors.VerificationError` on uninterpretable
    cascades (the caller maps that to ``RV101``).
    """
    if slot.is_reset:
        for value, wires in slot.resets:
            for wire in wires:
                polys[wire] = constant(value)
        return
    for group in slot.groups:
        apply_group_symbolic(polys, group)


def apply_group_symbolic(polys: list, group) -> None:
    """Apply one stacked slot group to a symbolic state, in place.

    The runtime's two orders: a group with ``row_slices`` passes each
    step over every row before the next step, any other group walks
    the whole cascade one row at a time — so aliasing behaves
    identically.
    """
    k, arity = group.wire_matrix.shape
    wires = group.wire_matrix.tolist()
    for row in range(k):
        for position in range(arity):
            if not 0 <= wires[row][position] < len(polys):
                raise VerificationError(
                    f"wire_matrix[{row}, {position}] = {wires[row][position]} "
                    f"outside the {len(polys)}-wire state"
                )
    if not isinstance(group.program, tuple):
        raise VerificationError(f"malformed cascade: {group.program!r}")
    if group.row_slices:
        order = [(row, step) for step in group.program for row in range(k)]
    else:
        order = [(row, step) for row in range(k) for step in group.program]
    for row, step in order:
        inputs = [polys[wire] for wire in wires[row]]
        target, value = cascade_step_poly(step, inputs)
        polys[wires[row][target]] = value


def slot_op_partition(compiled: CompiledCircuit) -> list[tuple[int, int]]:
    """``(start, stop)`` circuit-op indices per slot, in slot order."""
    spans = []
    cursor = 0
    for slot in compiled.slots:
        spans.append((cursor, cursor + len(slot.ops)))
        cursor += len(slot.ops)
    return spans


# ----------------------------------------------------------------------
# Layer 1: ops vs circuit
# ----------------------------------------------------------------------


def _verify_ops(circuit, compiled, label, report) -> bool:
    ops = [op for slot in compiled.slots for op in slot.ops]
    if len(ops) != len(circuit.ops):
        report.error(
            "RV200",
            label,
            f"slots hold {len(ops)} ops but the circuit has {len(circuit.ops)}",
        )
        return False
    sound = True
    for index, (op, compiled_op) in enumerate(zip(circuit.ops, ops)):
        where = f"{label} op {index}"
        if compiled_op.wires != op.wires or compiled_op.is_reset != op.is_reset:
            report.error(
                "RV200",
                where,
                f"compiled op (wires={compiled_op.wires}, "
                f"is_reset={compiled_op.is_reset}) does not mirror circuit "
                f"op (wires={op.wires}, is_reset={op.is_reset})",
            )
            sound = False
            continue
        if op.is_reset:
            if compiled_op.reset_value != op.reset_value:
                report.error(
                    "RV200",
                    where,
                    f"compiled reset value {compiled_op.reset_value} != "
                    f"circuit reset value {op.reset_value}",
                )
                sound = False
            continue
        sound &= _verify_lowered_program(op, compiled_op, where, report)
    return sound


def _verify_lowered_program(op, compiled_op, where, report) -> bool:
    gate = op.gate
    cascade = compiled_op.program
    if not isinstance(cascade, tuple):
        report.error(
            "RV101", where, f"gate op carries no cascade: {cascade!r}"
        )
        return False
    lowered = [variable(position) for position in range(gate.arity)]
    for index, step in enumerate(cascade):
        try:
            target, value = cascade_step_poly(step, lowered)
        except VerificationError as exc:
            report.error("RV101", where, f"step {index}: {exc}")
            return False
        lowered[target] = value
    reference = table_anf(gate.table, gate.arity)
    sound = True
    for position in range(gate.arity):
        if lowered[position] != reference[position]:
            report.error(
                "RV100",
                where,
                f"cascade for gate {gate.name!r} composes output "
                f"{position} to a polynomial other than the table's ANF",
            )
            sound = False
    return sound


# ----------------------------------------------------------------------
# Layer 2: slot structure (fusion legality + bookkeeping)
# ----------------------------------------------------------------------


def _verify_slot_structure(compiled, label, report) -> bool:
    sound = True
    for slot_index, slot in enumerate(compiled.slots):
        where = f"{label} slot {slot_index}"
        sound &= _verify_one_slot(slot, compiled.n_wires, where, report)
    return sound


def _run_members(slot, where, report) -> list[list[int]] | None:
    """Each group's slot-op indices by the run table, or ``None``.

    ``None`` (after an ``RV209``) when the runs do not tile the slot's
    ops group by group in op order.  Whether each run is maximal is not
    checked: splitting a run moves no site and no replacement word.
    """
    members: list[list[int]] = [[] for _ in slot.groups]
    previous = (0, 0)  # the last run's group and stop
    for index, run in enumerate(slot.runs):
        group, start, stop = run
        if not (0 <= group < len(slot.groups) and 0 <= start < stop <= len(slot.ops)):
            report.error(
                "RV209",
                f"{where} run {index}",
                f"run {run} names no group of {len(slot.groups)} or no "
                f"op range of {len(slot.ops)} ops",
            )
            return None
        if (group, start) < previous:
            report.error(
                "RV209",
                f"{where} run {index}",
                f"run {run} is listed after a run of group {previous[0]} "
                f"ending at op {previous[1]}",
            )
            return None
        previous = (group, stop)
        members[group].extend(range(start, stop))
    covered = sorted(i for indices in members for i in indices)
    if covered != list(range(len(slot.ops))):
        report.error(
            "RV209",
            where,
            f"runs cover ops {covered}, not each of the {len(slot.ops)} "
            f"slot ops once",
        )
        return None
    return members


def _verify_one_slot(slot, n_wires, where, report) -> bool:
    sound = True
    touched: set[int] = set()
    for op_index, op in enumerate(slot.ops):
        if op.is_reset != slot.is_reset:
            report.error(
                "RV201",
                f"{where} op {op_index}",
                f"op class ({'reset' if op.is_reset else 'gate'}) differs "
                f"from slot class ({'reset' if slot.is_reset else 'gate'})",
            )
            sound = False
        overlap = touched.intersection(op.wires)
        if overlap:
            report.error(
                "RV202",
                f"{where} op {op_index}",
                f"wires {sorted(overlap)} already touched inside the slot — "
                f"fused ops must be pairwise disjoint",
            )
            sound = False
        touched.update(op.wires)

    members = _run_members(slot, where, report)
    sound &= members is not None
    for group_index, indices in enumerate(members or ()):
        group = slot.groups[group_index]
        rows = [tuple(int(w) for w in row) for row in group.wire_matrix]
        run_ops = [slot.ops[i] for i in indices]
        if rows != [op.wires for op in run_ops]:
            report.error(
                "RV205",
                f"{where} group {group_index}",
                f"rows {rows} are not the wires of its run ops "
                f"{[op.wires for op in run_ops]}",
            )
            sound = False
        if not slot.is_reset and any(op.program != group.program for op in run_ops):
            report.error(
                "RV205",
                f"{where} group {group_index}",
                "cascade differs from a run op's cascade",
            )
            sound = False

    for group_index, group in enumerate(slot.groups):
        k, arity = group.wire_matrix.shape
        for row in range(k):
            for position in range(arity):
                wire = int(group.wire_matrix[row, position])
                if not 0 <= wire < n_wires:
                    report.error(
                        "RV206",
                        f"{where} group {group_index}",
                        f"wire_matrix[{row}, {position}] = {wire} outside "
                        f"0..{n_wires - 1}",
                    )
                    sound = False
        if group.row_slices:
            if len(group.row_slices) != arity:
                report.error(
                    "RV207",
                    f"{where} group {group_index}",
                    f"{len(group.row_slices)} row_slices for arity {arity}",
                )
                sound = False
            for position, view in enumerate(group.row_slices[:arity]):
                column = group.wire_matrix[:, position].tolist()
                # A partial set of views (a ``None`` entry) is refused:
                # the walk takes views for every position or for none.
                if isinstance(view, slice):
                    view = list(range(n_wires)[view])
                if view != column:
                    report.error(
                        "RV207",
                        f"{where} group {group_index}",
                        f"row_slices[{position}] covers {view!r}, "
                        f"column holds {column}",
                    )
                    sound = False

    if slot.is_reset:
        by_value: dict[int, list[int]] = {}
        for op in slot.ops:
            by_value.setdefault(op.reset_value, []).extend(op.wires)
        expected = tuple(
            (value, tuple(wires)) for value, wires in by_value.items()
        )
        if slot.resets != expected:
            report.error(
                "RV208",
                where,
                f"reset partition {slot.resets} does not rebuild from the "
                f"slot ops (expected {expected})",
            )
            sound = False
    return sound


# ----------------------------------------------------------------------
# Layer 3: slot transfer functions
# ----------------------------------------------------------------------


def _verify_slot_transfers(circuit, compiled, label, report) -> None:
    spans = slot_op_partition(compiled)
    for slot_index, (slot, (start, stop)) in enumerate(
        zip(compiled.slots, spans)
    ):
        where = f"{label} slot {slot_index}"
        ops = circuit.ops[start:stop]
        executed = [variable(w) for w in range(compiled.n_wires)]
        try:
            apply_slot_symbolic(executed, slot)
        except VerificationError as exc:
            report.error("RV101", where, str(exc))
            continue
        reference = [variable(w) for w in range(compiled.n_wires)]
        apply_ops_symbolic(reference, ops)
        mismatched = [
            wire
            for wire in range(compiled.n_wires)
            if executed[wire] != reference[wire]
        ]
        if mismatched:
            report.error(
                "RV300",
                where,
                f"slot transfer function differs from the sequential ops "
                f"on wires {mismatched}",
            )


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


def verify_compiled(
    circuit,
    compiled: CompiledCircuit | None = None,
    *,
    report: DiagnosticReport | None = None,
    check_circuit: bool = True,
) -> DiagnosticReport:
    """Prove a compiled program equivalent to its circuit, symbolically.

    Runs the well-formedness pass first (a broken gate table makes the
    symbolic reference meaningless), then the three program layers:
    op mirroring + lowering correctness, fusion legality and run-table
    bookkeeping, and per-slot transfer-function equality over fresh
    variables.  ``compiled`` defaults to ``compile_circuit(circuit)``
    (fused); pass an explicit object to verify an artifact that
    did not come from the production compiler.  ``check_circuit=False``
    skips the well-formedness pass for callers that already ran it
    (e.g. ``python -m repro.verify`` verifying one circuit under
    several fusion modes).
    """
    if report is None:
        report = DiagnosticReport()
    label = circuit_label(circuit)
    if check_circuit:
        well_formed = DiagnosticReport()
        verify_circuit(circuit, report=well_formed)
        report.extend(well_formed)
        if not well_formed.ok:
            return report
    if compiled is None:
        compiled = compile_circuit(circuit)
    if compiled.n_wires != circuit.n_wires:
        report.error(
            "RV200",
            label,
            f"compiled program has {compiled.n_wires} wires, circuit has "
            f"{circuit.n_wires}",
        )
        return report
    ops_ok = _verify_ops(circuit, compiled, label, report)
    _verify_slot_structure(compiled, label, report)
    # The transfer check needs only the slot partition to be meaningful
    # (slot ops mirroring the circuit's) — it runs even when bookkeeping
    # diagnostics fired, so semantic corruption (RV300) is reported
    # independently of structural corruption (RV20#).
    if ops_ok:
        _verify_slot_transfers(circuit, compiled, label, report)
    return report
