"""GF(2) polynomial algebra for symbolic circuit verification.

The bit-plane lowering of :mod:`repro.core.compiled` turns every gate
into an in-place cascade of XOR-of-AND steps; this module provides the
*algebraic* counterpart — multilinear polynomials over GF(2) in
algebraic normal form — so that circuits and their compiled programs
can be compared **symbolically**, with no simulation and no input
sampling.

A polynomial is a ``frozenset`` of monomials and a monomial is a
``frozenset`` of variable indices: XOR is symmetric difference (equal
terms cancel in characteristic 2), AND distributes with the same
cancellation, and the empty monomial is the constant 1.  Because the
representation is a canonical form — multilinear, no coefficients, no
term order — two polynomials are semantically equal *iff* the frozensets
are equal, which is what makes equality a proof rather than a test.

The table-to-ANF conversion here is deliberately **independent** of the
cascade synthesis in :mod:`repro.core.compiled`: it evaluates the
subset-lattice Möbius inversion directly (coefficient of monomial ``S``
is the XOR of the output column over all input patterns supported
inside ``S``).  The verifier in :mod:`repro.verify` composes each
lowered cascade symbolically and compares it against the table through
*this* path, so a bug in the production lowering cannot hide by being
used on both sides of the comparison.

Bit conventions match the simulator: gate position 0 is the most
significant bit of a packed pattern (see ``_input_bit`` in
:mod:`repro.core.compiled`).
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.errors import VerificationError

__all__ = [
    "ONE",
    "Poly",
    "ZERO",
    "cascade_step_poly",
    "constant",
    "evaluate",
    "p_and",
    "p_xor",
    "substitute",
    "table_anf",
    "variable",
]

Monomial = frozenset
Poly = frozenset

#: The zero polynomial: an empty XOR.
ZERO: Poly = frozenset()
#: The one polynomial: the empty monomial (product of no variables).
ONE: Poly = frozenset({frozenset()})


def variable(index: int) -> Poly:
    """The polynomial ``x_index``."""
    return frozenset({frozenset({index})})


def constant(bit: int) -> Poly:
    """The constant polynomial 0 or 1."""
    return ONE if bit & 1 else ZERO


def p_xor(*polys: Poly) -> Poly:
    """XOR (sum over GF(2)): symmetric difference of monomial sets."""
    result: frozenset = frozenset()
    for poly in polys:
        result = result ^ poly
    return result


def p_and(a: Poly, b: Poly) -> Poly:
    """AND (product over GF(2)): distribute, cancelling equal terms."""
    counts: dict = {}
    for left in a:
        for right in b:
            merged = left | right
            counts[merged] = counts.get(merged, 0) ^ 1
    return frozenset(m for m, parity in counts.items() if parity)


def evaluate(poly: Poly, bits: Sequence[int]) -> int:
    """Evaluate ``poly`` at a concrete 0/1 assignment."""
    value = 0
    for monomial in poly:
        term = 1
        for index in monomial:
            term &= bits[index] & 1
        value ^= term
    return value


def substitute(poly: Poly, inputs: Sequence[Poly]) -> Poly:
    """Compose: replace variable ``i`` of ``poly`` with ``inputs[i]``."""
    result = ZERO
    for monomial in poly:
        term = ONE
        for index in monomial:
            term = p_and(term, inputs[index])
        result = p_xor(result, term)
    return result


def table_anf(table: Sequence[int], arity: int) -> tuple[Poly, ...]:
    """One ANF polynomial per output position of a permutation table.

    ``table[p]`` is the packed output pattern for packed input ``p``,
    position 0 most significant.  Implemented as the direct Möbius
    inversion over the subset lattice (no shared code with the
    production lowering): the coefficient of monomial ``S`` is the XOR
    of the output bit over every input pattern whose support lies
    inside ``S``.
    """
    size = 1 << arity
    if len(table) != size:
        raise VerificationError(
            f"table has {len(table)} entries, expected {size} for arity {arity}"
        )

    def output_bit(pattern: int, position: int) -> int:
        return (table[pattern] >> (arity - 1 - position)) & 1

    polys = []
    for position in range(arity):
        monomials = set()
        for subset in range(size):
            coefficient = 0
            # Iterate the sub-patterns of ``subset`` directly.
            sub = subset
            while True:
                coefficient ^= output_bit(sub, position)
                if sub == 0:
                    break
                sub = (sub - 1) & subset
            if coefficient:
                monomials.add(
                    frozenset(
                        i for i in range(arity)
                        if (subset >> (arity - 1 - i)) & 1
                    )
                )
        polys.append(frozenset(monomials))
    return tuple(polys)


def cascade_step_poly(step: tuple, inputs: Sequence[Poly]) -> tuple[int, Poly]:
    """Symbolically evaluate one cascade step ``(target, invert, monomials)``.

    Mirrors the runtime semantics of
    :meth:`repro.core.bitplane.BitplaneState.apply_cascade` over
    polynomial inputs: returns ``target`` and its new value, the old
    one XORed with the AND of each monomial's input positions and
    complemented when ``invert`` is true.  Anything the runtime could
    not evaluate, or that would not be its own inverse — not such a
    triple, a target out of range, a non-bool ``invert``, an empty
    monomial, a position out of range or a monomial containing the
    target — raises :class:`~repro.errors.VerificationError`.
    """
    if (
        not isinstance(step, tuple)
        or len(step) != 3
        or not isinstance(step[1], bool)
        or not isinstance(step[2], tuple)
    ):
        raise VerificationError(f"malformed cascade step: {step!r}")
    target, invert, monomials = step
    _check_position(target, len(inputs), step)
    accumulator = p_xor(inputs[target], constant(invert))
    for monomial in monomials:
        if not isinstance(monomial, tuple) or not monomial:
            raise VerificationError(
                f"malformed monomial {monomial!r} in cascade step {step!r}"
            )
        term = ONE
        for position in monomial:
            _check_position(position, len(inputs), step)
            if position == target:
                raise VerificationError(
                    f"monomial {monomial!r} contains the target of cascade "
                    f"step {step!r}"
                )
            term = p_and(term, inputs[position])
        accumulator = p_xor(accumulator, term)
    return target, accumulator


def _check_position(position: object, arity: int, step: tuple) -> None:
    if not isinstance(position, int) or not 0 <= position < arity:
        raise VerificationError(
            f"position {position!r} out of range for arity {arity} in "
            f"cascade step {step!r}"
        )
