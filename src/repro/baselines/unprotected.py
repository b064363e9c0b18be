"""The unprotected baseline: no fault tolerance at all.

A module of ``T`` gates with per-gate failure probability ``g``
survives only when *no* gate fails: the module error is
``1 - (1 - g)**T ~ gT``.  Section 2.3's framing — "without any error
correction, modules larger than 1,000 gates will almost certainly be
faulty" at ``g ~ 10**-3`` — is this curve.

:func:`simulate_unprotected` validates the formula by running an
actual reversible circuit (whose noiseless action is the identity)
through the Monte-Carlo engine and counting corrupted outputs.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.core.circuit import Circuit
from repro.noise.model import NoiseModel
from repro.runtime import (
    ExecutionPolicy,
    Executor,
    RunSpec,
    WireMismatchObservable,
)
from repro.errors import AnalysisError


def module_error(gate_error: float, module_gates: int) -> float:
    """``1 - (1 - g)**T``: probability an unprotected module fails."""
    if not 0.0 <= gate_error <= 1.0:
        raise AnalysisError(f"gate error must be in [0, 1], got {gate_error}")
    if module_gates < 0:
        raise AnalysisError(f"module size must be >= 0, got {module_gates}")
    return 1.0 - (1.0 - gate_error) ** module_gates


def module_error_linear(gate_error: float, module_gates: int) -> float:
    """The small-``g`` approximation ``g * T``."""
    if not 0.0 <= gate_error <= 1.0:
        raise AnalysisError(f"gate error must be in [0, 1], got {gate_error}")
    return min(1.0, gate_error * module_gates)


def largest_reliable_module(gate_error: float, target_error: float = 0.5) -> float:
    """Largest ``T`` keeping the module error below ``target_error``."""
    if not 0.0 < gate_error < 1.0:
        raise AnalysisError(f"gate error must be in (0, 1), got {gate_error}")
    if not 0.0 < target_error < 1.0:
        raise AnalysisError(
            f"target error must be in (0, 1), got {target_error}"
        )
    return np.log(1.0 - target_error) / np.log(1.0 - gate_error)


def identity_module(module_gates: int, n_wires: int = 3) -> Circuit:
    """A ``T``-gate circuit whose noiseless action is the identity.

    Alternates ``MAJ`` and ``MAJ⁻¹`` on the same wires (a trailing
    unpaired ``MAJ`` is avoided by requiring an even count), so any
    output corruption is attributable to injected faults.
    """
    if module_gates < 0 or module_gates % 2 != 0:
        raise AnalysisError(
            f"identity module needs an even gate count, got {module_gates}"
        )
    if n_wires < 3:
        raise AnalysisError(f"identity module needs >= 3 wires, got {n_wires}")
    circuit = Circuit(n_wires, name=f"identity-{module_gates}")
    for index in range(module_gates // 2):
        base = (3 * index) % (n_wires - 2)
        circuit.maj(base, base + 1, base + 2)
        circuit.maj_inv(base, base + 1, base + 2)
    return circuit


def simulate_unprotected(
    gate_error: float,
    module_gates: int,
    trials: int,
    seed: int | np.random.Generator | None = None,
    n_wires: int = 3,
) -> float:
    """Monte-Carlo module error of an unprotected identity module.

    Returns the fraction of trials whose output differs from the
    input anywhere — the empirical ``1 - (1-g)**T`` (slightly below it,
    since a fault can be silent or cancelled).  The point is declared
    as a :class:`~repro.runtime.RunSpec` and executed through
    :class:`~repro.runtime.Executor`.
    """
    circuit = identity_module(module_gates, n_wires)
    input_bits = tuple(i % 2 for i in range(n_wires))
    spec = RunSpec(
        circuit=circuit,
        input_bits=input_bits,
        observable=WireMismatchObservable(range(n_wires), input_bits),
        noise=NoiseModel(gate_error=gate_error),
        trials=trials,
        seed=seed,
    )
    policy = replace(ExecutionPolicy.from_env(), parallel=None)
    return Executor(policy).run([spec])[0].failure_fraction
