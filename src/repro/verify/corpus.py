"""The circuit corpus the CI verification job proves correct.

Everything a published number can flow through: one single-gate
circuit per library gate (so every table and every lowered program is
covered), every :data:`~repro.core.decompositions.DECOMPOSITIONS`
entry (the synthesized constructions, applied to their target wires),
the paper's recovery cycle with and without its ancilla resets — the
circuit whose transversal structure exercises multi-op fused slots and
stacked groups three wide — and the ``mc-threshold`` cycle, whose
recoveries on the layouts its transversal MAJ and MAJ⁻¹ leave behind
stack groups without slice views.
"""

from __future__ import annotations

from repro.coding.concatenation import recovery_circuit
from repro.coding.logical import LogicalProcessor
from repro.core.circuit import Circuit
from repro.core.decompositions import DECOMPOSITIONS
from repro.core.library import MAJ, MAJ_INV, REGISTRY

__all__ = ["corpus"]


def corpus() -> list[tuple[str, Circuit]]:
    """``(name, circuit)`` pairs, in deterministic order."""
    entries: list[tuple[str, Circuit]] = []
    for name in sorted(REGISTRY):
        gate = REGISTRY[name]
        circuit = Circuit(gate.arity, name=f"lib:{name}")
        circuit.append_gate(gate, *range(gate.arity))
        entries.append((f"lib:{name}", circuit))
    for name in sorted(DECOMPOSITIONS):
        circuit, _gate, _targets = DECOMPOSITIONS[name]
        entries.append((f"decomp:{name}", circuit))
    entries.append(("recovery:EL", recovery_circuit(include_resets=True)))
    entries.append(
        ("recovery:EL-no-resets", recovery_circuit(include_resets=False))
    )
    cycle = LogicalProcessor(3, include_resets=True, name="cycle:mc-threshold")
    cycle.apply(MAJ, 0, 1, 2)
    cycle.apply(MAJ_INV, 0, 1, 2)
    entries.append(("cycle:mc-threshold", cycle.circuit))
    return entries
