"""Repetition coding, majority-multiplexing recovery, concatenation.

One compiler builds every fault-tolerant circuit: a logical bit is a
:class:`Block` tree, :func:`compile_gate` and :func:`compile_recovery`
lower a gate and a Figure-2 recovery at any level (level 1 is the
base case), and :class:`LogicalProcessor` drives them over
``n_logical`` bits at a chosen concatenation level.
"""

from repro.coding.concatenation import (
    Block,
    compile_gate,
    compile_recovery,
    gamma_census,
    recovery_circuit,
    repeated_recovery,
)
from repro.coding.logical import LogicalProcessor, concatenated_gate_circuit
from repro.coding.recovery import (
    ANCILLA_WIRES,
    DATA_WIRES,
    OUTPUT_WIRES,
    RECOVERY_OPS_WITH_INIT,
    RECOVERY_OPS_WITHOUT_INIT,
    RecoveryLayout,
    operations_per_encoded_gate,
    recovery_op_count,
)
from repro.coding.repetition import (
    LOGICAL_ONE,
    LOGICAL_ZERO,
    RepetitionCode,
    THREE_BIT_CODE,
)

__all__ = [
    "Block",
    "compile_gate",
    "compile_recovery",
    "concatenated_gate_circuit",
    "gamma_census",
    "recovery_circuit",
    "repeated_recovery",
    "LogicalProcessor",
    "ANCILLA_WIRES",
    "DATA_WIRES",
    "OUTPUT_WIRES",
    "RECOVERY_OPS_WITH_INIT",
    "RECOVERY_OPS_WITHOUT_INIT",
    "RecoveryLayout",
    "operations_per_encoded_gate",
    "recovery_op_count",
    "LOGICAL_ONE",
    "LOGICAL_ZERO",
    "RepetitionCode",
    "THREE_BIT_CODE",
]
