"""Entropy cost of simulating NAND with reversible gates (Section 4).

Footnote 4 of the paper claims that 3/2 bits of dissipated entropy per
NAND evaluation is *optimal* over reversible 3-bit realisations with
equally-likely inputs, and that ``MAJ⁻¹`` achieves it.  This module
verifies the claim constructively:

* a *realisation* feeds the NAND inputs ``(x, y)`` into two wires of a
  3-bit reversible gate, a constant into the third, and reads
  ``NAND(x, y)`` off a chosen output wire for all four inputs;
* its *entropy cost* is the Shannon entropy of the two discarded output
  wires under uniform inputs — the number of bits that must be reset
  (and hence dissipated, via Landauer) per evaluation;
* :func:`search_all_gates` covers **all 8! = 40320 reversible 3-bit
  gates** and every wiring, finding the global minimum.  A wiring sees
  only the gate's images of the four NAND inputs, so the costs are
  computed once per image class — the 1680 injective image 4-tuples,
  each shared by 4! = 24 gates — and every gate then looks its class
  up for each ancilla setting.

The information-theoretic floor is 1.5 bits: the four input patterns
map injectively to (output, discarded) triples, the three inputs with
output 1 need distinct discard pairs, and the best case piles the
fourth input onto one of them, giving the distribution
(1/2, 1/4, 1/4) with entropy 3/2.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from math import log2

import numpy as np

from repro.core.gate import Gate
from repro.errors import AnalysisError

#: NAND truth values for inputs (0,0), (0,1), (1,0), (1,1).
_NAND_OUTPUTS = (1, 1, 1, 0)

#: Entropy of the distribution (1/2, 1/4, 1/4): the provable floor.
OPTIMAL_NAND_ENTROPY = 1.5

#: Weights packing an image 4-tuple of 3-bit values into a 12-bit code.
_TUPLE_WEIGHTS = np.array([512, 64, 8, 1])


@dataclass(frozen=True)
class NandRealisation:
    """A wiring of a 3-bit gate that computes NAND.

    ``ancilla_wire`` carries the constant ``ancilla_value``; the two
    remaining wires carry ``x`` then ``y`` in wire order;
    ``output_wire`` carries NAND(x, y) after the gate.
    """

    ancilla_wire: int
    ancilla_value: int
    output_wire: int
    entropy_cost: float


def _input_index(x: int, y: int, ancilla_wire: int, ancilla_value: int) -> int:
    """Pack (x, y, constant) into a 3-bit pattern, wire 0 MSB."""
    bits = [0, 0, 0]
    data_wires = [w for w in range(3) if w != ancilla_wire]
    bits[data_wires[0]] = x
    bits[data_wires[1]] = y
    bits[ancilla_wire] = ancilla_value
    return (bits[0] << 2) | (bits[1] << 1) | bits[2]


def _discard_entropy(discard_patterns: list[int]) -> float:
    """Entropy (bits) of the empirical discard distribution."""
    counts: dict[int, int] = {}
    for pattern in discard_patterns:
        counts[pattern] = counts.get(pattern, 0) + 1
    total = len(discard_patterns)
    return -sum(
        (count / total) * log2(count / total) for count in counts.values()
    )


def nand_realisations(gate: Gate) -> list[NandRealisation]:
    """Every wiring of ``gate`` that computes NAND, with entropy costs."""
    if gate.arity != 3:
        raise AnalysisError(
            f"NAND realisation search needs a 3-bit gate, got arity {gate.arity}"
        )
    realisations = []
    for ancilla_wire in range(3):
        for ancilla_value in (0, 1):
            for output_wire in range(3):
                outputs = []
                discards = []
                for (x, y), want in zip(
                    ((0, 0), (0, 1), (1, 0), (1, 1)), _NAND_OUTPUTS
                ):
                    index = _input_index(x, y, ancilla_wire, ancilla_value)
                    image = gate.table[index]
                    out_bit = (image >> (2 - output_wire)) & 1
                    outputs.append(out_bit)
                    discard_wires = [w for w in range(3) if w != output_wire]
                    discard = 0
                    for wire in discard_wires:
                        discard = (discard << 1) | ((image >> (2 - wire)) & 1)
                    discards.append(discard)
                if tuple(outputs) == _NAND_OUTPUTS:
                    realisations.append(
                        NandRealisation(
                            ancilla_wire=ancilla_wire,
                            ancilla_value=ancilla_value,
                            output_wire=output_wire,
                            entropy_cost=_discard_entropy(discards),
                        )
                    )
    return realisations


def min_nand_cost(gate: Gate) -> float | None:
    """The gate's cheapest NAND realisation, or None if it has none."""
    costs = [r.entropy_cost for r in nand_realisations(gate)]
    return min(costs) if costs else None


@dataclass(frozen=True)
class SearchResult:
    """Outcome of the exhaustive search over all 3-bit reversible gates."""

    minimum_entropy: float
    achieving_gates: int
    total_gates_searched: int
    total_realisations: int


def search_all_gates() -> SearchResult:
    """Scan all 40320 reversible 3-bit gates for the cheapest NAND.

    A wiring reads a gate only through its images of the four NAND
    inputs.  So the cost and NAND wiring count are computed once per
    injective image 4-tuple (1680 classes, each shared by 4! = 24
    gates), and every gate looks its class up for each of the 6
    ancilla settings.
    """
    images = np.array(list(permutations(range(8), 4)), dtype=np.int64)
    classes = images @ _TUPLE_WEIGHTS
    cost = np.full(8**4, np.inf)
    wirings = np.zeros(8**4, dtype=np.int64)
    for output_wire in range(3):
        out_bits = (images >> (2 - output_wire)) & 1
        valid = (out_bits == np.array(_NAND_OUTPUTS)).all(axis=1)
        discard_wires = [w for w in range(3) if w != output_wire]
        discards = ((images >> (2 - discard_wires[0])) & 1) * 2 + (
            (images >> (2 - discard_wires[1])) & 1
        )
        entropy = np.where(valid, _rowwise_entropy(discards), np.inf)
        cost[classes] = np.minimum(cost[classes], entropy)
        wirings[classes] += valid

    gates = _permutation_table(8)
    best = np.full(len(gates), np.inf)
    total_realisations = 0
    for ancilla_wire in range(3):
        for ancilla_value in (0, 1):
            indices = [
                _input_index(x, y, ancilla_wire, ancilla_value)
                for (x, y) in ((0, 0), (0, 1), (1, 0), (1, 1))
            ]
            gate_classes = gates[:, indices] @ _TUPLE_WEIGHTS
            best = np.minimum(best, cost[gate_classes])
            total_realisations += int(wirings[gate_classes].sum())

    finite = best[np.isfinite(best)]
    minimum = float(finite.min())
    achieving = int(np.isclose(best, minimum).sum())
    return SearchResult(
        minimum_entropy=minimum,
        achieving_gates=achieving,
        total_gates_searched=len(gates),
        total_realisations=total_realisations,
    )


def _permutation_table(n: int) -> np.ndarray:
    """All ``n!`` permutations of ``range(n)``, one per row.

    Each step inserts the next value at every position of every row.
    """
    table = np.zeros((1, 0), dtype=np.int64)
    for value in range(n):
        rows = len(table)
        grown = np.empty((rows * (value + 1), value + 1), dtype=np.int64)
        for position in range(value + 1):
            block = grown[position * rows : (position + 1) * rows]
            block[:, :position] = table[:, :position]
            block[:, position] = value
            block[:, position + 1 :] = table[:, position:]
        table = grown
    return table


def _rowwise_entropy(values: np.ndarray) -> np.ndarray:
    """Entropy (bits) of each row's empirical distribution of 4 values."""
    rows, columns = values.shape
    if columns != 4:
        raise AnalysisError(f"expected 4 columns of samples, got {columns}")
    # Count multiplicity of each entry within its row.
    counts = np.zeros_like(values, dtype=np.float64)
    for j in range(columns):
        matches = (values == values[:, j : j + 1]).sum(axis=1)
        counts[:, j] = matches
    p = counts / columns
    # Each sample contributes -(1/4) log2(p of its value).
    return (-(np.log2(p)) / columns).sum(axis=1)
