"""Exact second-order (fault-pair) analysis of recovery circuits.

The paper bounds the logical error of one gate-plus-recovery cycle by
counting *all* operation pairs: ``g_logical <= 3 C(G,2) g**2`` (Eq. 1),
and notes that "a tighter bound will result in an improved error
threshold".  Because this library's recovery circuits are small, the
exact quadratic coefficient is computable:

* every single fault is enumerated and shown harmless (the linear term
  vanishes — that is the fault-tolerance property);
* every unordered *pair* of faulting operations is enumerated; each
  faulting operation outputs one of its ``2**arity`` patterns uniformly,
  so a pair's failure probability is the fraction of joint patterns
  that flip the decoded logical value;
* the quadratic coefficient is the sum of those fractions over pairs,
  giving ``g_logical = c2 * g**2 + O(g**3)`` exactly.

The *exact threshold* of the cycle is then the crossing
``c2 * g**2 = g``, i.e. ``1/c2`` — always at or above the paper's
``1/(3 C(G,2))`` because many pairs are harmless.  The
``ablation-exact-threshold`` table of EXPERIMENTS.md quantifies the gap.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby

from repro.core.circuit import Circuit
from repro.coding.repetition import THREE_BIT_CODE
from repro.noise.injector import (
    iter_fault_pairs,
    iter_single_faults,
    run_with_faults,
)
from repro.errors import AnalysisError


@dataclass(frozen=True)
class PairAnalysis:
    """Exact second-order failure census of a protected circuit."""

    operations: int
    harmful_single_faults: int
    pair_count: int
    harmful_pair_weight: float

    @property
    def quadratic_coefficient(self) -> float:
        """``c2`` in ``g_logical = c2 g**2 + O(g**3)``."""
        return self.harmful_pair_weight

    @property
    def exact_threshold(self) -> float:
        """The crossing ``c2 g**2 = g``: ``1 / c2``."""
        if self.harmful_pair_weight == 0:
            raise AnalysisError("no harmful pairs; threshold is unbounded")
        return 1.0 / self.harmful_pair_weight

    def paper_bound_coefficient(self) -> int:
        """The Eq.-1 pair count ``3 C(G,2)`` for the same G."""
        from math import comb

        return 3 * comb(self.operations, 2)


def analyse_pairs(
    circuit: Circuit,
    input_state,
    output_wires,
    expected_logical: int,
) -> PairAnalysis:
    """Exhaustively weigh all single faults and fault pairs.

    ``input_state`` is the full physical input; a failure is a decoded
    logical value (majority over ``output_wires``) different from
    ``expected_logical``.  Each fault pattern at an operation carries
    probability ``2**-arity``; a pair's weight is the failing fraction
    of its joint pattern space.  For the logical-error interpretation
    to be exact at O(g^2), each faulting operation must contribute the
    same Bernoulli(g), which is the paper's error model.
    """

    def fails(faults) -> bool:
        final = run_with_faults(circuit, input_state, faults)
        decoded = THREE_BIT_CODE.decode(tuple(final[w] for w in output_wires))
        return decoded != expected_logical

    # One failing pattern makes an op harmful; ``any`` stops there.
    harmful_singles = sum(
        any(fails([fault]) for fault in faults)
        for _, faults in groupby(
            iter_single_faults(circuit), key=lambda fault: fault.op_index
        )
    )

    pair_weight = 0.0
    pair_count = 0
    for _, pairs in groupby(
        iter_fault_pairs(circuit),
        key=lambda pair: (pair[0].op_index, pair[1].op_index),
    ):
        pair_count += 1
        outcomes = [fails(pair) for pair in pairs]
        pair_weight += sum(outcomes) / len(outcomes)

    return PairAnalysis(
        operations=len(circuit),
        harmful_single_faults=harmful_singles,
        pair_count=pair_count,
        harmful_pair_weight=pair_weight,
    )


def analyse_recovery_cycle(include_resets: bool = True) -> PairAnalysis:
    """Pair analysis of one Figure-2 recovery cycle storing logical 1."""
    from repro.coding import OUTPUT_WIRES, recovery_circuit

    circuit = recovery_circuit(include_resets=include_resets)
    input_state = (1, 1, 1) + (0,) * 6
    return analyse_pairs(circuit, input_state, OUTPUT_WIRES, expected_logical=1)


def analyse_one_d_cycle(include_resets: bool = True) -> PairAnalysis:
    """Pair analysis of one Figure-7 (1D local) recovery cycle."""
    from repro.local.local_recovery import (
        ONE_D_DATA_POSITIONS,
        one_d_recovery_circuit,
    )

    circuit = one_d_recovery_circuit(1, include_resets=include_resets)
    state = [0] * 9
    for position in ONE_D_DATA_POSITIONS:
        state[position] = 1
    return analyse_pairs(
        circuit, tuple(state), ONE_D_DATA_POSITIONS, expected_logical=1
    )
