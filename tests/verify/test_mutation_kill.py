"""Mutation-kill suite: every seeded corruption must be caught.

Each case clones a freshly compiled artifact, corrupts one structural
or semantic invariant, and asserts the verifier reports the *right*
diagnostic code — a verifier that fails loudly but with the wrong code
would break CI triage and the tests that pin it.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.circuit import Circuit
from repro.core.compiled import CompiledCircuit, CompiledOp, _build_slot
from repro.verify.program import verify_compiled


def transversal_circuit() -> Circuit:
    # One fused gate slot, one stacked group (k=3) with
    # arithmetic-progression columns.
    return Circuit(6, name="mut:cnot3").cnot(0, 3).cnot(1, 4).cnot(2, 5)


def scattered_circuit() -> Circuit:
    # Non-AP target column (5, 3, 4), so the stacked group has no slice
    # views and is walked instance by instance.
    return Circuit(6, name="mut:scatter").cnot(0, 5).cnot(1, 3).cnot(2, 4)


def mixed_circuit() -> Circuit:
    # One fused gate slot with two groups, one run each: two CNOTs
    # (ops 0-1), then two X gates (ops 2-3).
    return Circuit(6, name="mut:mixed").cnot(0, 1).cnot(2, 3).x(4).x(5)


def reset_circuit() -> Circuit:
    return (
        Circuit(4, name="mut:resets")
        .append_reset(0)
        .append_reset(1, value=1)
        .append_reset(2)
    )


def replace_slot(compiled: CompiledCircuit, index: int, **changes):
    slots = list(compiled.slots)
    slots[index] = dataclasses.replace(slots[index], **changes)
    compiled.slots = tuple(slots)


def replace_group(compiled: CompiledCircuit, slot_index: int, group_index: int, **changes):
    slot = compiled.slots[slot_index]
    groups = list(slot.groups)
    groups[group_index] = dataclasses.replace(groups[group_index], **changes)
    replace_slot(compiled, slot_index, groups=tuple(groups))


def mutate_dropped_slot_op(compiled):
    slot = compiled.slots[0]
    replace_slot(compiled, 0, ops=slot.ops[:-1])


def mutate_class_flip(compiled):
    replace_slot(compiled, 0, is_reset=True)


def mutate_row_swap(compiled):
    # Swap two rows of the stacked group: the run table still tiles the
    # ops, but the group's rows no longer hold its run ops' wires.
    group = compiled.slots[0].groups[0]
    matrix = np.array(group.wire_matrix)
    matrix[[0, 1]] = matrix[[1, 0]]
    replace_group(compiled, 0, 0, wire_matrix=matrix, row_slices=())


def mutate_missing_bookkeeping(compiled):
    replace_slot(compiled, 0, runs=())


def mutate_runs_out_of_group_order(compiled):
    # List the X group's run before the CNOT group's.
    runs = compiled.slots[0].runs
    replace_slot(compiled, 0, runs=runs[::-1])


def mutate_run_boundary_shift(compiled):
    # Move the boundary between the two runs one op later: the runs
    # still tile the ops, but the CNOT group's run now holds an X op.
    (g0, start0, stop0), (g1, start1, stop1) = compiled.slots[0].runs
    replace_slot(compiled, 0, runs=((g0, start0, stop0 + 1), (g1, start1 + 1, stop1)))


def mutate_run_wrong_group(compiled):
    # The X ops' run names the CNOT group.
    first, (_, start, stop) = compiled.slots[0].runs
    replace_slot(compiled, 0, runs=(first, (first[0], start, stop)))


def mutate_wire_matrix_bounds(compiled):
    group = compiled.slots[0].groups[0]
    matrix = np.array(group.wire_matrix)
    matrix[0, 0] = compiled.n_wires + 3
    replace_group(compiled, 0, 0, wire_matrix=matrix, row_slices=())


def mutate_row_slices(compiled):
    group = compiled.slots[0].groups[0]
    view = group.row_slices[0]
    assert view is not None
    shifted = slice(view.start + 1, view.stop + 1, view.step)
    replace_group(
        compiled, 0, 0, row_slices=(shifted,) + group.row_slices[1:]
    )


def mutate_partial_row_slices(compiled):
    # Drop one column's view: views are one per column or none at all.
    group = compiled.slots[0].groups[0]
    replace_group(compiled, 0, 0, row_slices=(None,) + group.row_slices[1:])


def mutate_reset_partition(compiled):
    slot = compiled.slots[0]
    resets = tuple(
        (1 - value, wires) for value, wires in slot.resets
    )
    replace_slot(compiled, 0, resets=resets)


def mutate_semantic_wire_swap(compiled):
    # Swap the control and target columns of the stacked group: every
    # row still holds in-bounds wires, but row 0 now computes
    # CNOT(3, 0) while op 0 promises CNOT(0, 3).
    group = compiled.slots[0].groups[0]
    matrix = np.array(group.wire_matrix)[:, ::-1].copy()
    replace_group(compiled, 0, 0, wire_matrix=matrix, row_slices=())


def lower_to(cascade):
    """A mutation giving every gate op the lowered ``cascade``.

    The tampering is *consistent* across slot ops and group cascade, so
    only the lowering check (not the structural reconciliation) can
    catch it.
    """

    def mutate(compiled):
        def tamper(op: CompiledOp) -> CompiledOp:
            return dataclasses.replace(op, program=cascade)

        ops = tuple(tamper(op) for op in compiled.slots[0].ops)
        replace_slot(compiled, 0, ops=ops)
        replace_group(compiled, 0, 0, program=cascade)

    return mutate


#: The CNOT as its cascade: ``x1 ^= x0``.
CNOT_STEP = (1, False, ((0,),))

# A well-formed cascade with the control and target swapped: it
# computes CNOT(1, 0) where the table says CNOT(0, 1).
mutate_lowered_program = lower_to(((0, False, ((1,),)),))
# A well-formed step around a monomial that is no tuple of positions.
mutate_uninterpretable_program = lower_to(((1, False, ("warp",)),))
mutate_out_of_range_position = lower_to(((1, False, ((0, 7),)),))
mutate_non_bool_invert = lower_to(((1, 0, ((0,),)),))
# A pre-cascade lowering entry: a tagged copy, not a step triple.
mutate_leftover_tagged_entry = lower_to((("copy", 0), CNOT_STEP))
# ``x1 ^= x0 & x1`` is no reversible step: it loses x1 where x0 is 1.
mutate_target_in_monomial = lower_to(((1, False, ((0, 1),)),))
mutate_out_of_range_target = lower_to(((2, False, ((0,),)),))


MUTATIONS = [
    ("dropped-slot-op", transversal_circuit, mutate_dropped_slot_op, "RV200"),
    ("class-flip", transversal_circuit, mutate_class_flip, "RV201"),
    ("row-swap", transversal_circuit, mutate_row_swap, "RV205"),
    ("missing-bookkeeping", transversal_circuit, mutate_missing_bookkeeping, "RV209"),
    ("runs-out-of-group-order", mixed_circuit, mutate_runs_out_of_group_order, "RV209"),
    ("run-boundary-shift", mixed_circuit, mutate_run_boundary_shift, "RV205"),
    ("run-wrong-group", mixed_circuit, mutate_run_wrong_group, "RV205"),
    ("wire-matrix-bounds", transversal_circuit, mutate_wire_matrix_bounds, "RV206"),
    ("row-slices-shift", transversal_circuit, mutate_row_slices, "RV207"),
    ("row-slices-partial", transversal_circuit, mutate_partial_row_slices, "RV207"),
    ("reset-partition", reset_circuit, mutate_reset_partition, "RV208"),
    ("semantic-wire-swap", transversal_circuit, mutate_semantic_wire_swap, "RV300"),
    ("scattered-wire-swap", scattered_circuit, mutate_semantic_wire_swap, "RV300"),
    ("lowered-program", transversal_circuit, mutate_lowered_program, "RV100"),
    ("uninterpretable-program", transversal_circuit, mutate_uninterpretable_program, "RV101"),
    ("out-of-range-position", transversal_circuit, mutate_out_of_range_position, "RV101"),
    ("non-bool-invert", transversal_circuit, mutate_non_bool_invert, "RV101"),
    ("leftover-tagged-entry", transversal_circuit, mutate_leftover_tagged_entry, "RV101"),
    ("target-in-monomial", transversal_circuit, mutate_target_in_monomial, "RV101"),
    ("out-of-range-target", transversal_circuit, mutate_out_of_range_target, "RV101"),
]


@pytest.mark.parametrize(
    "build,mutate,expected",
    [case[1:] for case in MUTATIONS],
    ids=[case[0] for case in MUTATIONS],
)
def test_mutation_is_killed_with_the_right_code(build, mutate, expected):
    circuit = build()
    compiled = CompiledCircuit(circuit, fuse=True)
    assert verify_compiled(circuit, compiled).ok  # the artifact starts clean
    mutate(compiled)
    report = verify_compiled(circuit, compiled)
    assert not report.ok, f"mutation survived: {report.render()}"
    assert report.has(expected), (
        f"expected {expected}, got {sorted(set(report.codes()))}:\n"
        f"{report.render()}"
    )


def test_illegal_fusion_overlap_is_rv202():
    # Hand-fuse two overlapping ops into one slot: the ops still
    # mirror the circuit's, but the fused block is illegal.
    circuit = Circuit(2, name="mut:overlap").cnot(0, 1).cnot(1, 0)
    compiled = CompiledCircuit(circuit, fuse=True)
    assert len(compiled.slots) == 2  # the compiler refuses to fuse these
    compiled.slots = (_build_slot([op for s in compiled.slots for op in s.ops]),)
    report = verify_compiled(circuit, compiled)
    assert report.has("RV202")


def test_mutation_suite_covers_ten_distinct_corruptions():
    assert len(MUTATIONS) >= 10
    assert len({case[0] for case in MUTATIONS}) == len(MUTATIONS)
