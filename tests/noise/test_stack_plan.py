"""The fault kernel's injection plan against a group-row reference.

``_StackPlan`` reads each slot op's wires straight from ``op.wires``.
:func:`reference_plan` builds the same arrays the way the plan was
first written: through every op's ``op_group``/``op_row`` row of its
group's wire matrix, slot by slot.  The two must agree on every circuit
the verifier proves, fused and unfused.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.compiled import compile_circuit
from repro.noise.monte_carlo import _StackPlan
from repro.verify.corpus import corpus


def reference_plan(compiled) -> dict[str, object]:
    """``_StackPlan``'s fields, built from the group wire matrices."""
    slots = compiled.slots
    max_groups = max((len(s.groups) for s in slots), default=1)
    arity = np.zeros(len(slots) * max_groups, dtype=np.int64)
    for si, slot in enumerate(slots):
        for gi, group in enumerate(slot.groups):
            arity[si * max_groups + gi] = group.wire_matrix.shape[1]
    width = int(arity.max(initial=0))
    cell_parts = [np.empty(0, dtype=np.int64)]
    wire_parts = [np.empty((0, width), dtype=np.int64)]
    global_parts = [np.empty(0, dtype=np.int64)]
    slot_cells = [0] * len(slots)
    cell_base = 0
    for is_reset in (False, True):
        class_slots = [(si, s) for si, s in enumerate(slots) if s.is_reset == is_reset]
        if not class_slots:
            continue
        wires = np.zeros((sum(len(s.ops) for _, s in class_slots), width), dtype=np.int64)
        row = 0
        for slot_c, (si, s) in enumerate(class_slots):
            slot_cells[si] = cell_base + slot_c * max_groups
            cell_parts.append(slot_cells[si] + s.op_group.astype(np.int64))
            for g, r in zip(s.op_group, s.op_row):
                matrix = s.groups[g].wire_matrix
                wires[row, : matrix.shape[1]] = matrix[r]
                row += 1
            global_parts.append(si * max_groups + np.arange(max_groups))
        wire_parts.append(wires)
        cell_base += len(class_slots) * max_groups
    op_cell = np.concatenate(cell_parts)
    return {
        "max_groups": max_groups,
        "arity": arity,
        "op_cell": op_cell,
        "op_wires": np.ascontiguousarray(np.concatenate(wire_parts).T),
        "bins": np.arange(cell_base + 1, dtype=np.int64),
        "cells": np.concatenate(global_parts),
        "slot_cells": slot_cells,
        "monotone": bool(np.all(np.diff(op_cell) >= 0)),
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
