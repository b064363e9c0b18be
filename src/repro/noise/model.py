"""The paper's error model (Section 2).

"At each application, a gate will randomize all the bits it is applied
to with probability *g*."  We implement exactly that: a failed
operation's touched wires are replaced by uniform random bits, so with
probability ``1/2**arity`` the fault is silent (the entropy analysis in
Section 4 relies on this through its ``7g/8`` factors).

Reset operations (3-bit ancilla initialisations) may carry their own
error rate; the paper's two accounting conventions — initialisation
"counted like a gate" versus "far more accurate than our gates" — map
to ``reset_error=None`` (inherit ``g``) versus ``reset_error=0.0``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SimulationError


@dataclass(frozen=True)
class NoiseModel:
    """Independent gate-failure model with rate ``gate_error``.

    Attributes:
        gate_error: probability ``g`` that an operation randomises the
            wires it touches.
        reset_error: failure probability of reset operations; ``None``
            means "same as gate_error" (the paper's G = 11/16/40
            counting), ``0.0`` means perfectly accurate initialisation
            (the paper's G = 9/14/38 counting).
    """

    gate_error: float
    reset_error: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.gate_error <= 1.0:
            raise SimulationError(
                f"gate_error must be in [0, 1], got {self.gate_error}"
            )
        if self.reset_error is not None and not 0.0 <= self.reset_error <= 1.0:
            raise SimulationError(
                f"reset_error must be in [0, 1] or None, got {self.reset_error}"
            )

    @property
    def effective_reset_error(self) -> float:
        """The reset failure probability actually used in simulation."""
        if self.reset_error is None:
            return self.gate_error
        return self.reset_error

    def scaled(self, factor: float) -> "NoiseModel":
        """A model with every rate multiplied by ``factor``."""
        reset = None if self.reset_error is None else self.reset_error * factor
        return NoiseModel(gate_error=self.gate_error * factor, reset_error=reset)

    @staticmethod
    def noiseless() -> "NoiseModel":
        """The zero-error model."""
        return NoiseModel(gate_error=0.0, reset_error=0.0)
