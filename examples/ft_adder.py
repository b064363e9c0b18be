"""Fault-tolerant ripple-carry addition on repetition-coded data.

Run with::

    python examples/ft_adder.py [trials]

Builds the Cuccaro MAJ/UMA ripple-carry adder (the application the
paper's footnote 2 points at) from this library's own ``MAJ`` gate,
then runs it two ways under the paper's noise model:

* bare — every gate acts on raw bits;
* fault-tolerant — every logical bit is a 3-bit repetition codeword
  and each transversal gate is followed by a Figure-2 recovery cycle.

Below threshold, the coded adder returns the right sum far more often.
"""

from __future__ import annotations

import sys

import numpy as np

from repro.coding.logical import LogicalProcessor
from repro.core.circuit import Circuit
from repro.core.gate import Gate
from repro.core.library import CNOT, MAJ
from repro.core.simulator import run
from repro.harness.tables import format_table
from repro.noise.model import NoiseModel
from repro.noise.monte_carlo import NoisyRunner


def _uma_action(bits):
    x, y, z = bits
    z ^= x & y
    x ^= z
    y ^= x
    return (x, y, z)


UMA = Gate.from_function("UMA", 3, _uma_action)
N_BITS = 2


def adder_gates():
    """Gate list over the register [c0, b0, a0, b1, a1, z]."""
    def a(i):
        return 2 + 2 * i

    def b(i):
        return 1 + 2 * i

    gates = []
    carry = 0
    for i in range(N_BITS):
        gates.append((MAJ, (a(i), b(i), carry)))
        carry = a(i)
    gates.append((CNOT, (a(N_BITS - 1), 1 + 2 * N_BITS)))
    for i in reversed(range(N_BITS)):
        gates.append(((UMA), (0 if i == 0 else a(i - 1), b(i), a(i))))
    return gates


def register_for(a_value: int, b_value: int):
    register = [0] * (2 + 2 * N_BITS)
    for i in range(N_BITS):
        register[1 + 2 * i] = (b_value >> i) & 1
        register[2 + 2 * i] = (a_value >> i) & 1
    return tuple(register)


def sums_from(decoded: np.ndarray) -> np.ndarray:
    totals = np.zeros(decoded.shape[0], dtype=np.int64)
    for i in range(N_BITS):
        totals |= decoded[:, 1 + 2 * i].astype(np.int64) << i
    totals |= decoded[:, 1 + 2 * N_BITS].astype(np.int64) << N_BITS
    return totals


def main(trials: int = 5000) -> None:
    gates = adder_gates()
    a_value, b_value = 3, 2

    print("=== Noiseless check, all 2-bit operand pairs ===")
    for av in range(4):
        for bv in range(4):
            processor = LogicalProcessor(2 + 2 * N_BITS)
            for gate, operands in gates:
                processor.apply(gate, *operands)
            output = run(
                processor.circuit, processor.physical_input(register_for(av, bv))
            )
            decoded = processor.decode_output(output)
            total = sums_from(np.asarray([decoded]))[0]
            assert total == av + bv, (av, bv, total)
    print("all 16 sums correct on coded data\n")

    rows = []
    for gate_error in (1e-3, 3e-3, 1e-2):
        processor = LogicalProcessor(2 + 2 * N_BITS)
        for gate, operands in gates:
            processor.apply(gate, *operands)
        physical = processor.physical_input(register_for(a_value, b_value))
        runner = NoisyRunner(NoiseModel(gate_error=gate_error), seed=7)
        result = runner.run_from_input(processor.circuit, physical, trials)
        ft_sums = sums_from(processor.decode_batch(result.states))
        ft_failures = float((ft_sums != a_value + b_value).mean())

        bare = Circuit(2 + 2 * N_BITS)
        for gate, wires in gates:
            bare.append_gate(gate, *wires)
        runner = NoisyRunner(NoiseModel(gate_error=gate_error), seed=8)
        bare_result = runner.run_from_input(
            bare, register_for(a_value, b_value), trials
        )
        bare_sums = sums_from(bare_result.states.array)
        bare_failures = float((bare_sums != a_value + b_value).mean())
        rows.append(
            (
                f"{gate_error:.0e}",
                f"{bare_failures:.4f}",
                f"{ft_failures:.4f}",
                f"{bare_failures / ft_failures:.1f}x" if ft_failures else "inf",
            )
        )

    print(
        format_table(
            ("gate error", "bare adder fails", "FT adder fails", "advantage"),
            rows,
            title=f"{a_value} + {b_value} under noise ({trials} trials)",
        )
    )


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 5000)
