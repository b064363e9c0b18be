"""Circuit blow-up analysis (Section 2.3, Eq. 3).

Replacing each perfect gate of a ``T``-gate module by its level-``L``
fault-tolerant implementation multiplies the gate count by

    Gamma_L = (3 (1 + E)) ** L  =  (3 (G - 2)) ** L

and the bit count by ``S_L = 9 ** L``.  The recursion bottoms out when
``g_L <= 1/T``, which needs

    L >= log2( log(T rho) / log(rho / g) )

For ``G = 11`` the blow-ups are poly-logarithmic in ``T``:
``O((log T)^4.75)`` gates and ``O((log T)^3.17)`` bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, log2

from repro.analysis.threshold import threshold
from repro.errors import AnalysisError


def gate_blowup(operation_count: int, level: int) -> int:
    """``Gamma_L = (3(G-2))**L``: gates per logical gate at level L."""
    _check_level(level)
    if operation_count < 3:
        raise AnalysisError(f"operation count must be >= 3, got {operation_count}")
    return (3 * (operation_count - 2)) ** level


def bit_blowup(level: int) -> int:
    """``S_L = 9**L``: physical bits per logical bit at level L."""
    _check_level(level)
    return 9**level


def gate_overhead_exponent(operation_count: int) -> float:
    """``log2(3(G-2))`` — the poly-log exponent of the gate blow-up."""
    if operation_count < 3:
        raise AnalysisError(f"operation count must be >= 3, got {operation_count}")
    return log2(3 * (operation_count - 2))


def bit_overhead_exponent() -> float:
    """``log2 9 ~ 3.17`` — the poly-log exponent of the bit blow-up."""
    return log2(9)


def required_level_exact(
    gate_error: float, operation_count: int, module_gates: int
) -> float:
    """The real-valued bound of Eq. 3: ``log2(log(T rho)/log(rho/g))``.

    Any logarithm base works since only ratios appear; we use log2 like
    the paper's worked example.
    """
    rho = threshold(operation_count)
    if not 0 < gate_error < rho:
        raise AnalysisError(
            f"gate error {gate_error} must be in (0, rho={rho:.3g}) for "
            "concatenation to converge"
        )
    if module_gates < 1:
        raise AnalysisError(f"module gate count must be >= 1, got {module_gates}")
    numerator = log2(module_gates * rho)
    denominator = log2(rho / gate_error)
    if numerator <= 0:
        return 0.0
    return log2(numerator / denominator)


def required_level(
    gate_error: float, operation_count: int, module_gates: int
) -> int:
    """The smallest integer concatenation depth satisfying Eq. 3."""
    return max(0, ceil(required_level_exact(gate_error, operation_count, module_gates)))


def achievable_module_size(
    gate_error: float, operation_count: int, level: int
) -> float:
    """Largest ``T`` with expected errors <= 1 at concatenation level L.

    Inverts Eq. 2: ``T = 1 / g_L``.
    """
    rho = threshold(operation_count)
    if not 0 < gate_error < rho:
        raise AnalysisError(
            f"gate error {gate_error} must be in (0, rho={rho:.3g})"
        )
    _check_level(level)
    g_level = rho * (gate_error / rho) ** (2**level)
    return 1.0 / g_level


@dataclass(frozen=True)
class BlowupReport:
    """Overheads for building one module fault-tolerantly."""

    module_gates: int
    gate_error: float
    operation_count: int
    level: int
    gate_factor: int
    bit_factor: int

    @property
    def total_gates(self) -> int:
        """Physical gates in the fault-tolerant module."""
        return self.module_gates * self.gate_factor


def plan_module(
    gate_error: float, operation_count: int, module_gates: int
) -> BlowupReport:
    """Choose the minimum valid level and report the blow-ups.

    ``plan_module(rho/10, 9, 10**6)`` reproduces the worked example of
    Section 2.3: level 2, 441 gates per gate, 81 bits per bit.
    """
    level = required_level(gate_error, operation_count, module_gates)
    return BlowupReport(
        module_gates=module_gates,
        gate_error=gate_error,
        operation_count=operation_count,
        level=level,
        gate_factor=gate_blowup(operation_count, level),
        bit_factor=bit_blowup(level),
    )


def unprotected_module_limit(gate_error: float) -> float:
    """Module size where an unprotected circuit averages one error.

    "Without any error correction, modules larger than 1,000 gates will
    almost certainly be faulty" (for g = 10**-3): this is ``1/g``.
    """
    if not 0 < gate_error <= 1:
        raise AnalysisError(f"gate error must be in (0, 1], got {gate_error}")
    return 1.0 / gate_error


def _check_level(level: int) -> None:
    if level < 0:
        raise AnalysisError(f"level must be >= 0, got {level}")
