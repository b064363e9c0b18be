"""The standard gate library.

Defines every named gate used by the paper:

* ``X`` (NOT), ``CNOT``, ``TOFFOLI`` — the universal reversible basis
  used in Figure 1.
* ``SWAP``, ``FREDKIN`` — classic reversible primitives.
* ``SWAP3_DOWN`` / ``SWAP3_UP`` — the two rotations realisable as two
  SWAPs on three adjacent bits (Figure 5).
* ``MAJ`` — the reversible majority gate of Table 1: flip the second
  two bits if the first bit is 1, then flip the first bit if the second
  two bits are both 1.  Its first output bit is the majority of the
  three input bits.
* ``MAJ_INV`` — the inverse gate; on ``(b, 0, 0)`` it fans ``b`` out to
  all three wires, which is how Figure 2 spreads codeword bits across
  decode blocks.

All gates here are module-level constants; :func:`get` looks them up by
name and :data:`REGISTRY` exposes the full catalogue.
"""

from __future__ import annotations

from repro.core.bits import Bits
from repro.core.gate import Gate
from repro.errors import GateDefinitionError


def _not_action(bits: Bits) -> Bits:
    return (bits[0] ^ 1,)


def _cnot_action(bits: Bits) -> Bits:
    control, target = bits
    return (control, target ^ control)


def _toffoli_action(bits: Bits) -> Bits:
    control_a, control_b, target = bits
    return (control_a, control_b, target ^ (control_a & control_b))


def _swap_action(bits: Bits) -> Bits:
    return (bits[1], bits[0])


def _fredkin_action(bits: Bits) -> Bits:
    control, first, second = bits
    if control:
        return (control, second, first)
    return bits


def _swap3_down_action(bits: Bits) -> Bits:
    """Two SWAPs: swap wires 1,2 then wires 0,1 — a downward rotation.

    The bit on wire 0 ends on wire 2's former... concretely the pattern
    ``(a, b, c)`` becomes ``(b, c, a)``: every bit moves one wire *up*
    while wire contents rotate downward through the gate.
    """
    a, b, c = bits
    return (b, c, a)


def _swap3_up_action(bits: Bits) -> Bits:
    """The inverse rotation: ``(a, b, c)`` becomes ``(c, a, b)``."""
    a, b, c = bits
    return (c, a, b)


def _maj_action(bits: Bits) -> Bits:
    """The paper's two-step definition of MAJ (caption of Table 1)."""
    q0, q1, q2 = bits
    if q0 == 1:
        q1 ^= 1
        q2 ^= 1
    if q1 == 1 and q2 == 1:
        q0 ^= 1
    return (q0, q1, q2)


IDENTITY1 = Gate.from_function("I", 1, lambda bits: bits)
X = Gate.from_function("X", 1, _not_action)
CNOT = Gate.from_function("CNOT", 2, _cnot_action)
SWAP = Gate.from_function("SWAP", 2, _swap_action)
TOFFOLI = Gate.from_function("TOFFOLI", 3, _toffoli_action)
FREDKIN = Gate.from_function("FREDKIN", 3, _fredkin_action)
SWAP3_DOWN = Gate.from_function("SWAP3_DOWN", 3, _swap3_down_action)
SWAP3_UP = Gate.from_function("SWAP3_UP", 3, _swap3_up_action)
MAJ = Gate.from_function("MAJ", 3, _maj_action)
MAJ_INV = MAJ.inverse("MAJ⁻¹")

#: Gate names counted as MAJ-family operations in recovery circuits.
MAJ_NAMES = frozenset({"MAJ", "MAJ⁻¹"})

REGISTRY: dict[str, Gate] = {
    gate.name: gate
    for gate in (
        IDENTITY1,
        X,
        CNOT,
        SWAP,
        TOFFOLI,
        FREDKIN,
        SWAP3_DOWN,
        SWAP3_UP,
        MAJ,
        MAJ_INV,
    )
}


def get(name: str) -> Gate:
    """Look a gate up by name, raising for unknown names."""
    try:
        return REGISTRY[name]
    except KeyError:
        raise GateDefinitionError(
            f"unknown gate {name!r}; known gates: {sorted(REGISTRY)}"
        ) from None


def identity(arity: int) -> Gate:
    """The identity gate on ``arity`` wires."""
    return Gate(
        name=f"I{arity}" if arity > 1 else "I",
        arity=arity,
        table=tuple(range(1 << arity)),
    )


#: Table 1 of the paper, as (input, output) bit strings.  Kept as a
#: literal so tests can check the *implementation* against the *paper*
#: rather than against itself.
PAPER_TABLE_1: tuple[tuple[str, str], ...] = (
    ("000", "000"),
    ("001", "001"),
    ("010", "010"),
    ("011", "111"),
    ("100", "011"),
    ("101", "110"),
    ("110", "101"),
    ("111", "100"),
)
