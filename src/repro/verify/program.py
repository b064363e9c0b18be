"""Symbolic equivalence of compiled plane programs with the circuit.

The proof obligation: a :class:`~repro.core.compiled.CompiledCircuit`
executed slot by slot must compute exactly the function of the source
circuit executed op by op — for **all** inputs, not the sampled subset
a simulation-based suite happens to draw.  The check decomposes into
three layers, each symbolic over GF(2) polynomials
(:mod:`repro.core.anf`):

1. **Schedule vs circuit** (``RV100``/``RV101``): the flat schedule
   must mirror the circuit op for op (wires, class, reset values), and
   every gate op's lowered plane program must equal the gate table's
   ANF — derived here by the *independent* Möbius inversion of
   :func:`repro.core.anf.table_anf`, never by the production lowering,
   so the lowering cannot vouch for itself.
2. **Slots vs schedule** (``RV2##``): the fused slots' ops must
   concatenate back to the schedule, every slot must be legal (one
   error class, pairwise-disjoint wires, in-bounds stacked indices,
   faithful ``op_group``/``op_row``/``class_offset``/``row_slices``
   bookkeeping, reset partitions matching the reset ops).
3. **Slot transfer functions** (``RV300``): each slot, executed by the
   engines' stacked semantics (gather every group column, evaluate the
   shared program once, scatter) over *fresh variables per wire*, must
   equal the same ops applied sequentially from the gate tables.

The fresh-variables-per-slot device is what keeps this linear: a
whole-circuit ANF composition grows exponentially on nonlinear
circuits, but a slot's transfer function is polynomial in its own
inputs only.  Equality of every slot's transfer plus the structural
reconciliation of layers 1–2 composes to whole-program equivalence,
because function composition respects equality slot by slot.
"""

from __future__ import annotations

from repro.core.anf import (
    constant,
    plane_expr_poly,
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

    Mirrors :meth:`~repro.core.bitplane.BitplaneState.apply_program_stacked`
    exactly: groups run sequentially; within a group **all** input
    columns are gathered before any output is scattered, the shared
    program is evaluated once per stacked row, and outputs scatter
    position-major.  Reset slots apply their value partitions.
    Mutates ``polys`` in place; raises
    :class:`~repro.errors.VerificationError` on uninterpretable
    programs (the caller maps that to ``RV101``).
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

    Gather-all-then-scatter, position-major — the exact order of the
    stacked runtime apply, so aliasing behaves identically.
    """
    k, arity = group.wire_matrix.shape
    for row in range(k):
        for position in range(arity):
            wire = int(group.wire_matrix[row, position])
            if not 0 <= wire < len(polys):
                raise VerificationError(
                    f"wire_matrix[{row}, {position}] = {wire} outside the "
                    f"{len(polys)}-wire state"
                )
    gathered = [
        [polys[int(group.wire_matrix[row, position])] for row in range(k)]
        for position in range(arity)
    ]
    outputs = []
    for row in range(k):
        row_inputs = [gathered[position][row] for position in range(arity)]
        outputs.append(
            [
                plane_expr_poly(expression, row_inputs)
                for expression in group.program
            ]
        )
    for position in range(arity):
        for row in range(k):
            polys[int(group.wire_matrix[row, position])] = outputs[row][
                position
            ]


def slot_op_partition(compiled: CompiledCircuit) -> list[tuple[int, int]]:
    """``(start, stop)`` schedule indices per slot, in slot order."""
    spans = []
    cursor = 0
    for slot in compiled.slots:
        spans.append((cursor, cursor + len(slot.ops)))
        cursor += len(slot.ops)
    return spans


# ----------------------------------------------------------------------
# Layer 1: schedule vs circuit
# ----------------------------------------------------------------------


def _verify_schedule(circuit, compiled, label, report) -> bool:
    if len(compiled.schedule) != len(circuit.ops):
        report.error(
            "RV200",
            label,
            f"schedule has {len(compiled.schedule)} ops but the circuit "
            f"has {len(circuit.ops)}",
        )
        return False
    sound = True
    for index, (op, compiled_op) in enumerate(
        zip(circuit.ops, compiled.schedule)
    ):
        where = f"{label} schedule op {index}"
        if compiled_op.wires != op.wires or compiled_op.is_reset != op.is_reset:
            report.error(
                "RV200",
                where,
                f"schedule op (wires={compiled_op.wires}, "
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
                    f"schedule reset value {compiled_op.reset_value} != "
                    f"circuit reset value {op.reset_value}",
                )
                sound = False
            continue
        sound &= _verify_lowered_program(op, compiled_op, where, report)
    return sound


def _verify_lowered_program(op, compiled_op, where, report) -> bool:
    gate = op.gate
    program = compiled_op.program
    if program is None or len(program) != gate.arity:
        report.error(
            "RV101",
            where,
            f"gate op carries program of length "
            f"{None if program is None else len(program)}, expected "
            f"{gate.arity}",
        )
        return False
    reference = table_anf(gate.table, gate.arity)
    inputs = [variable(position) for position in range(gate.arity)]
    sound = True
    for position, expression in enumerate(program):
        try:
            lowered = plane_expr_poly(expression, inputs)
        except VerificationError as exc:
            report.error(
                "RV101", where, f"output {position}: {exc}"
            )
            sound = False
            continue
        if lowered != reference[position]:
            report.error(
                "RV100",
                where,
                f"lowered expression for gate {gate.name!r} output "
                f"{position} disagrees with the table's ANF",
            )
            sound = False
    return sound


# ----------------------------------------------------------------------
# Layer 2: slots vs schedule (fusion legality + bookkeeping)
# ----------------------------------------------------------------------


def _verify_slot_concat(compiled, label, report) -> bool:
    flattened = tuple(op for slot in compiled.slots for op in slot.ops)
    if flattened != compiled.schedule:
        report.error(
            "RV200",
            label,
            f"slot ops concatenate to {len(flattened)} ops that do not "
            f"reconcile with the {len(compiled.schedule)}-op schedule",
        )
        return False
    return True


def _verify_slot_structure(compiled, label, report) -> bool:
    sound = True
    class_counts = {False: 0, True: 0}
    for slot_index, slot in enumerate(compiled.slots):
        where = f"{label} slot {slot_index}"
        sound &= _verify_one_slot(slot, compiled.n_wires, where, report)
        if slot.class_offset != class_counts[slot.is_reset]:
            report.error(
                "RV203",
                where,
                f"class_offset {slot.class_offset} != {class_counts[slot.is_reset]} "
                f"prior {'reset' if slot.is_reset else 'gate'} ops",
            )
            sound = False
        class_counts[slot.is_reset] += len(slot.ops)
    return sound


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

    if slot.op_group is None or slot.op_row is None:
        report.error("RV204", where, "op_group/op_row bookkeeping missing")
        return False
    if len(slot.op_group) != len(slot.ops) or len(slot.op_row) != len(slot.ops):
        report.error(
            "RV204",
            where,
            f"op_group/op_row lengths ({len(slot.op_group)}, "
            f"{len(slot.op_row)}) != {len(slot.ops)} slot ops",
        )
        return False

    assigned: set[tuple[int, int]] = set()
    for op_index, op in enumerate(slot.ops):
        group_index = int(slot.op_group[op_index])
        row_index = int(slot.op_row[op_index])
        if not 0 <= group_index < len(slot.groups):
            report.error(
                "RV204",
                f"{where} op {op_index}",
                f"op_group {group_index} outside {len(slot.groups)} groups",
            )
            sound = False
            continue
        group = slot.groups[group_index]
        k, arity = group.wire_matrix.shape
        if not 0 <= row_index < k:
            report.error(
                "RV204",
                f"{where} op {op_index}",
                f"op_row {row_index} outside the group's {k} rows",
            )
            sound = False
            continue
        if (group_index, row_index) in assigned:
            report.error(
                "RV204",
                f"{where} op {op_index}",
                f"group row ({group_index}, {row_index}) assigned twice",
            )
            sound = False
        assigned.add((group_index, row_index))
        row = tuple(int(w) for w in group.wire_matrix[row_index])
        if row != op.wires:
            report.error(
                "RV205",
                f"{where} op {op_index}",
                f"group {group_index} row {row_index} holds wires {row}, "
                f"op has wires {op.wires}",
            )
            sound = False
        if not slot.is_reset and group.program != op.program:
            report.error(
                "RV205",
                f"{where} op {op_index}",
                f"group {group_index} program differs from the op's program",
            )
            sound = False
    total_rows = sum(group.wire_matrix.shape[0] for group in slot.groups)
    if len(assigned) != total_rows:
        report.error(
            "RV204",
            where,
            f"{total_rows} group rows but only {len(assigned)} covered by ops",
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
            else:
                for position, view in enumerate(group.row_slices):
                    if view is None:
                        continue
                    step = view.step if view.step is not None else 1
                    indices = list(range(view.start, view.stop, step))
                    column = [int(w) for w in group.wire_matrix[:, position]]
                    if indices != column:
                        report.error(
                            "RV207",
                            f"{where} group {group_index}",
                            f"row_slices[{position}] covers {indices}, "
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
    fuse: bool = True,
    report: DiagnosticReport | None = None,
    check_circuit: bool = True,
) -> DiagnosticReport:
    """Prove a compiled program equivalent to its circuit, symbolically.

    Runs the well-formedness pass first (a broken gate table makes the
    symbolic reference meaningless), then the three program layers:
    schedule mirroring + lowering correctness, fusion legality and
    bookkeeping, and per-slot transfer-function equality over fresh
    variables.  ``compiled`` defaults to ``compile_circuit(circuit,
    fuse=fuse)``; pass an explicit object to verify an artifact that
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
        compiled = compile_circuit(circuit, fuse=fuse)
    if compiled.n_wires != circuit.n_wires:
        report.error(
            "RV200",
            label,
            f"compiled program has {compiled.n_wires} wires, circuit has "
            f"{circuit.n_wires}",
        )
        return report
    schedule_ok = _verify_schedule(circuit, compiled, label, report)
    concat_ok = _verify_slot_concat(compiled, label, report)
    if concat_ok:
        _verify_slot_structure(compiled, label, report)
    # The transfer check needs only the slot partition to be meaningful
    # (slots concatenating to the schedule, schedule mirroring the
    # circuit) — it runs even when bookkeeping diagnostics fired, so
    # semantic corruption (RV300) is reported independently of
    # structural corruption (RV20#).
    if schedule_ok and concat_ok:
        _verify_slot_transfers(circuit, compiled, label, report)
    return report
