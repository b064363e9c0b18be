"""The fault kernel's injection plan against a group-row reference.

``_StackPlan`` reads each slot op's wires straight from ``op.wires`` and
offsets each slot's run table (``FusedSlot.runs``) into merged op
order.  :func:`reference_plan` builds the same arrays without reading
the run table: it matches every slot op to the row of a group wire
matrix that holds its wires, takes the op's wires from that row, and
derives the runs from the breaks in each group's matched op positions.
The two must agree on every circuit the verifier proves, fused and
unfused.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.circuit import Circuit
from repro.core.compiled import compile_circuit
from repro.noise.monte_carlo import _run_slabs, _StackPlan
from repro.verify.corpus import corpus


def group_positions(slot) -> list[list[int]]:
    """Per group, the slot-op index of each wire-matrix row, in row order.

    Slot ops touch disjoint wires, so a row's wires name one op.
    """
    op_of = {op.wires: index for index, op in enumerate(slot.ops)}
    return [
        [op_of[tuple(int(w) for w in row)] for row in group.wire_matrix]
        for group in slot.groups
    ]


def reference_plan(compiled) -> dict[str, object]:
    """``_StackPlan``'s fields, built from the group wire matrices."""
    slots = compiled.slots
    width = max(
        (g.wire_matrix.shape[1] for s in slots for g in s.groups), default=0
    )
    wire_parts = [np.empty((0, width), dtype=np.int64)]
    first_op = [0] * len(slots)
    n_ops = 0
    for is_reset in (False, True):
        class_slots = [(si, s) for si, s in enumerate(slots) if s.is_reset == is_reset]
        if not class_slots:
            continue
        wires = np.zeros((sum(len(s.ops) for _, s in class_slots), width), dtype=np.int64)
        row = 0
        for si, s in class_slots:
            first_op[si] = n_ops + row
            for group, positions in zip(s.groups, group_positions(s)):
                matrix = group.wire_matrix
                wires[np.add(positions, row), : matrix.shape[1]] = matrix
            row += len(s.ops)
        wire_parts.append(wires)
        n_ops += row
    run_ops, run_cells, run_arity, slot_runs = [], [], [], [0]
    for si, s in enumerate(slots):
        for group, positions in zip(s.groups, group_positions(s)):
            positions = np.array(positions) + first_op[si]
            breaks = np.flatnonzero(np.diff(positions) != 1) + 1
            starts = positions[np.r_[0, breaks]]
            stops = positions[np.r_[breaks - 1, positions.size - 1]] + 1
            first = len(run_ops)
            run_ops.extend(zip(starts.tolist(), stops.tolist()))
            run_cells.extend([(first, len(run_ops))] * starts.size)
            run_arity.extend([group.wire_matrix.shape[1]] * starts.size)
        slot_runs.append(len(run_ops))
    return {
        "op_wires": np.ascontiguousarray(np.concatenate(wire_parts).T),
        "run_ops": np.array(run_ops, dtype=np.int64).reshape(-1, 2).T.copy(),
        "run_arity": run_arity,
        "run_cells": np.array(run_cells, dtype=np.int64).reshape(-1, 2).T.copy(),
        "slot_runs": slot_runs,
    }


@pytest.mark.parametrize("fuse", [True, False], ids=["fused", "unfused"])
@pytest.mark.parametrize("name,circuit", corpus(), ids=[name for name, _ in corpus()])
def test_plan_equals_group_row_reference(name, circuit, fuse):
    compiled = compile_circuit(circuit, fuse=fuse, cache=False)
    plan = _StackPlan(compiled)
    for field, expected in reference_plan(compiled).items():
        actual = getattr(plan, field)
        if isinstance(expected, np.ndarray):
            assert actual.dtype == expected.dtype, field
            assert actual.flags.c_contiguous, field
            np.testing.assert_array_equal(actual, expected, err_msg=field)
            assert actual.shape == expected.shape, field
        else:
            assert actual == expected, field


def test_interleaved_groups_make_three_runs():
    # One slot whose ops run CNOT, X, CNOT: group 0 (CNOT) has two runs,
    # group 1 (X) one.  Runs list group by group, each group's runs in
    # op order — the replacement block's slab order.
    compiled = compile_circuit(Circuit(5).cnot(0, 1).x(2).cnot(3, 4), cache=False)
    (slot,) = compiled.slots
    assert slot.runs == ((0, 0, 1), (0, 2, 3), (1, 1, 2))
    plan = _StackPlan(compiled)
    assert plan.slot_runs == [0, 3]
    np.testing.assert_array_equal(plan.run_ops, [[0, 2, 1], [1, 3, 2]])
    assert plan.run_arity == [2, 2, 1]
    np.testing.assert_array_equal(plan.run_cells, [[0, 0, 2], [2, 2, 3]])
    # Op 0 has 2 sites, op 1 one and op 2 three: the CNOT cell's slab is
    # (2, 5), its first run takes columns 0-1 and its second columns
    # 2-4, and the X cell's (1, 1) slab follows the CNOT's 10 words.
    slabs, size = _run_slabs(plan, np.array([0, 2, 3, 6], dtype=np.int64))
    assert slabs == [(0, 2, 0, 5, 0), (3, 6, 0, 5, 2), (2, 3, 10, 1, 0)]
    assert size == 11
