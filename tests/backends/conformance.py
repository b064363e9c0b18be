"""The conformance suite of the execution backend.

``test_conformance.py`` instantiates :class:`BackendConformance` on the
one execution path, the slot walk of
:meth:`~repro.core.compiled.CompiledCircuit.apply_slot`.  The suite is
behavioural: it pins the three guarantees the execution layers rely on.

1. **Small-circuit equivalence** — every library gate and a population
   of random mixed circuits, evaluated over *all* inputs at once,
   agree bit for bit with the reference single-state simulator.
2. **Stacked vs solo bit-identity** — multi-point executor batches
   reproduce solo runs exactly, per point.
3. **Decode correctness** — majority/popcount decode over bit-plane
   states matches brute-force per-trial computation.
"""

from __future__ import annotations

import numpy as np

from repro.coding.concatenation import recovery_circuit
from repro.core.bitplane import BitplaneState, count_trial_ones, popcount_words
from repro.core.circuit import Circuit
from repro.core.compiled import compile_circuit
from repro.core.library import REGISTRY
from repro.noise.model import NoiseModel
from repro.runtime.executor import Executor
from repro.runtime.spec import (
    ExecutionPolicy,
    MajorityMismatchObservable,
    RunSpec,
)
from tests.conftest import reference_outputs

RECOVERY_INPUT = (1, 1, 1) + (0,) * 6


def all_input_rows(n_wires: int) -> np.ndarray:
    """Every ``n_wires``-bit input as one (2**n, n) trial block."""
    patterns = np.arange(1 << n_wires, dtype=np.int64)
    shifts = np.arange(n_wires - 1, -1, -1, dtype=np.int64)
    return ((patterns[:, None] >> shifts) & 1).astype(np.uint8)


def random_circuit(rng: np.random.Generator, n_wires: int, n_ops: int) -> Circuit:
    """A random mix of library gates and resets on ``n_wires`` wires."""
    circuit = Circuit(n_wires)
    gates = [g for g in REGISTRY.values() if g.arity <= n_wires]
    for _ in range(n_ops):
        if rng.random() < 0.15:
            wires = rng.choice(n_wires, size=rng.integers(1, 3), replace=False)
            circuit.append_reset(
                *(int(w) for w in wires), value=int(rng.integers(2))
            )
        else:
            gate = gates[rng.integers(len(gates))]
            wires = rng.choice(n_wires, size=gate.arity, replace=False)
            circuit.append_gate(gate, *(int(w) for w in wires))
    return circuit


def failure_counts(policy: ExecutionPolicy, specs) -> list[int]:
    return [result.failures for result in Executor(policy).run(specs)]


class BackendConformance:
    """The suite; ``test_conformance.py`` collects it."""

    # ------------------------------------------------------------------
    # 1. Exhaustive small-circuit equivalence vs the reference simulator
    # ------------------------------------------------------------------

    def test_every_library_gate_on_all_inputs(self):
        for name, gate in sorted(REGISTRY.items()):
            circuit = Circuit(gate.arity)
            circuit.append_gate(gate, *range(gate.arity))
            rows = all_input_rows(gate.arity)
            state = BitplaneState.from_rows(rows)
            compile_circuit(circuit).run(state)
            np.testing.assert_array_equal(
                state.array, reference_outputs(circuit, rows), err_msg=name
            )

    def test_random_mixed_circuits_on_all_inputs(self):
        rng = np.random.default_rng(606)
        for n_wires in (3, 4, 5, 6):
            for _ in range(6):
                circuit = random_circuit(rng, n_wires, n_ops=12)
                rows = all_input_rows(n_wires)
                state = BitplaneState.from_rows(rows)
                compile_circuit(circuit).run(state)
                np.testing.assert_array_equal(
                    state.array, reference_outputs(circuit, rows)
                )

    def test_recovery_circuit_on_a_wide_batch(self):
        # Multi-word planes and stacked transversal groups, against the
        # reference simulator row by row.
        rng = np.random.default_rng(7)
        rows = rng.integers(0, 2, size=(1000, 9), dtype=np.uint8)
        circuit = recovery_circuit()
        state = BitplaneState.from_rows(rows)
        compile_circuit(circuit).run(state)
        np.testing.assert_array_equal(
            state.array, reference_outputs(circuit, rows)
        )

    def test_slotwise_apply_matches_whole_run(self):
        # apply_slot is the noisy engines' entry point; slot-by-slot
        # execution must equal the one-shot run.
        compiled = compile_circuit(recovery_circuit())
        a = BitplaneState.broadcast(RECOVERY_INPUT, 777)
        b = BitplaneState.broadcast(RECOVERY_INPUT, 777)
        compiled.run(a)
        for index in range(len(compiled.slots)):
            compiled.apply_slot(b, index)
        np.testing.assert_array_equal(a.planes, b.planes)

    # ------------------------------------------------------------------
    # 2. Stacked vs solo bit-identity through the executor
    # ------------------------------------------------------------------

    def test_stacked_points_match_solo_runs(self):
        circuit = recovery_circuit()
        noise_levels = (0.0, 1e-3, 0.05)
        policy = ExecutionPolicy()
        specs = [
            RunSpec(
                circuit=circuit,
                input_bits=RECOVERY_INPUT,
                observable=MajorityMismatchObservable((0, 1, 2), 1),
                noise=NoiseModel(gate_error=g),
                trials=3000,
                seed=40 + i,
            )
            for i, g in enumerate(noise_levels)
        ]
        stacked = failure_counts(policy, specs)
        solo = [
            failure_counts(policy, [spec])[0] for spec in specs
        ]
        assert stacked == solo

    # ------------------------------------------------------------------
    # 3. Decode correctness (majority / popcount primitives)
    # ------------------------------------------------------------------

    def test_majority_plane_matches_bruteforce(self):
        rng = np.random.default_rng(11)
        rows = rng.integers(0, 2, size=(500, 9), dtype=np.uint8)
        state = BitplaneState.from_rows(rows)
        for wires in ((0, 1, 2), (0, 3, 6), (1, 4, 7)):
            plane = state.majority_plane(wires)
            expected = (
                rows[:, list(wires)].sum(axis=1) > len(wires) // 2
            ).astype(np.uint8)
            from repro.core.bitplane import unpack_words

            np.testing.assert_array_equal(
                unpack_words(plane, state.trials), expected
            )

    def test_popcount_primitives(self):
        rng = np.random.default_rng(12)
        flags = rng.integers(0, 2, size=130, dtype=np.uint8)
        state = BitplaneState.from_rows(flags[:, None])
        words = state.planes[0]
        assert popcount_words(words) == int(flags.sum())
        assert count_trial_ones(words, 130) == int(flags.sum())
        # Padding bits must not leak into the trial count.
        words_padded = words.copy()
        words_padded[-1] |= np.uint64(1) << np.uint64(63)
        assert state.count_ones(words_padded) == int(flags.sum())
