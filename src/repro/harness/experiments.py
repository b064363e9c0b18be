"""The experiment registry: every table, figure, and numeric claim.

Each experiment reproduces one artefact of the paper and returns
``(quantity, paper value, measured value, match)`` rows.
``python -m repro.report`` runs these functions and prints the
comparisons; EXPERIMENTS.md is the curated record of their output.

Monte-Carlo experiments hydrate one
:class:`~repro.runtime.spec.ExecutionPolicy` from the environment
(:meth:`~repro.runtime.spec.ExecutionPolicy.from_env` — ``REPRO_TRIALS``
for the budget, ``REPRO_PARALLEL`` for the pool), so CI-speed and
high-precision runs use the same code.  One
exception to the budget: fig2's g^2-scaling row floors its trials at
30000 regardless of ``REPRO_TRIALS``, because it divides two small
failure counts and is meaningless below that.

Independent Monte-Carlo points (fig2's two error rates, fig3's two
concatenation levels, mc-threshold's bracket) are expressed as
:class:`~repro.runtime.spec.RunSpec` batches through
:class:`~repro.runtime.executor.Executor`: points sharing a circuit (fig2)
evaluate in one stacked plane array, and distinct circuits (fig3's two
levels) fan out to a process pool when ``REPRO_PARALLEL`` is set to a
worker count (or ``max``).  Every point carries its own frozen seed
and each point's numbers are independent of how it was batched or
scheduled, so parallel runs produce exactly the serial numbers.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from math import isclose, log2

import numpy as np

from repro.analysis.blowup import (
    bit_overhead_exponent,
    gate_blowup,
    gate_overhead_exponent,
    plan_module,
)
from repro.analysis.entropy import (
    KAPPA,
    empirical_entropy_from_columns,
    entropy_lower_bound,
    entropy_upper_bound,
    max_level_for_constant_entropy,
    single_gate_entropy,
)
from repro.analysis.nand_cost import min_nand_cost, search_all_gates
from repro.analysis.recursion import PAPER_TABLE_2, table2_rows
from repro.analysis.threshold import (
    PAPER_SCHEMES,
    threshold,
    threshold_denominator,
)
from repro.baselines.nand_multiplexing import critical_epsilon
from repro.baselines.unprotected import module_error, simulate_unprotected
from repro.coding.concatenation import gamma_census, recovery_circuit
from repro.coding.logical import LogicalProcessor, concatenated_gate_circuit
from repro.coding.recovery import DATA_WIRES, OUTPUT_WIRES, RecoveryLayout
from repro.coding.repetition import THREE_BIT_CODE
from repro.core import library
from repro.core.bits import majority, parse_bits
from repro.core.circuit import Circuit
from repro.core.library import (
    CNOT,
    MAJ,
    MAJ_INV,
    PAPER_TABLE_1,
    SWAP3_DOWN,
    SWAP3_UP,
    TOFFOLI,
)
from repro.core.simulator import run
from repro.core.truth_table import circuit_gate
from repro.harness.stats import wilson_interval
from repro.harness.threshold_finder import (
    cycle_processor,
    cycle_stage_spec,
    find_pseudo_threshold_adaptive,
    measure_cycle_errors,
)
from repro.local.interleave import (
    interleave_1d_schedule,
    one_d_cycle_operation_count,
    parallel_2d_schedule,
    perpendicular_2d_schedule,
)
from repro.local.lattice import circuit_is_local
from repro.local.local_recovery import (
    ONE_D_DATA_POSITIONS,
    one_d_lattice,
    one_d_recovery_circuit,
    one_d_routing_ops,
    two_d_lattice,
    two_d_recovery_circuit,
)
from repro.local.routing import packed_census
from repro.noise.injector import iter_single_faults, run_with_faults
from repro.noise.model import NoiseModel
from repro.noise.monte_carlo import NoisyRunner
from repro.runtime.executor import Executor
from repro.runtime.spec import (
    DecodeObservable,
    DecodedMismatchObservable,
    ExecutionPolicy,
    RunSpec,
)
from repro.synth.database import IdentityDatabase
from repro.synth.peephole import inflate, optimize_report
from repro.errors import ReproError

Row = tuple[str, object, object, bool]


# Module-level spec builders and evaluators (process-pool workers must
# be able to pickle everything a spec carries).


def _concatenation_spec(level: int, trials: int, gate_error: float) -> RunSpec:
    """Spec for the decoded failure of one noisy level-``level`` MAJ gate."""
    processor = LogicalProcessor(3, level)
    processor.apply(MAJ, 0, 1, 2)
    expected = tuple(MAJ.apply((1, 0, 1)))
    return RunSpec(
        circuit=processor.circuit,
        input_bits=processor.physical_input((1, 0, 1)),
        observable=DecodedMismatchObservable(processor, expected),
        noise=NoiseModel(gate_error=gate_error),
        trials=trials,
        seed=21 + level,
    )


def execution_policy() -> ExecutionPolicy:
    """The experiments' execution policy, hydrated from ``REPRO_*``."""
    return ExecutionPolicy.from_env()


def trial_budget() -> int:
    """Monte-Carlo trial count: 100k unless ``REPRO_TRIALS`` says otherwise."""
    return ExecutionPolicy.from_env().trials


#: What an experiment function returns: its rows and its notes ("" for
#: none).  :func:`run_experiment` stamps the registry's id and paper
#: reference onto them, so each experiment states both once.
Outcome = tuple[list[Row], str]


@dataclass
class ExperimentResult:
    """Outcome of one registered experiment."""

    experiment_id: str
    paper_ref: str
    rows: list[Row]
    notes: str = ""

    @property
    def all_match(self) -> bool:
        """True when every comparison row matched."""
        return all(row[3] for row in self.rows)


@dataclass(frozen=True)
class Experiment:
    """A registered reproduction target."""

    experiment_id: str
    paper_ref: str
    description: str
    function: Callable[[], Outcome]


REGISTRY: dict[str, Experiment] = {}


def register(
    experiment_id: str, paper_ref: str, description: str
) -> Callable[[Callable[[], Outcome]], Callable[[], Outcome]]:
    """Decorator adding an experiment function to the registry."""

    def decorator(function: Callable[[], Outcome]):
        if experiment_id in REGISTRY:
            raise ReproError(f"duplicate experiment id {experiment_id!r}")
        REGISTRY[experiment_id] = Experiment(
            experiment_id=experiment_id,
            paper_ref=paper_ref,
            description=description,
            function=function,
        )
        return function

    return decorator


def run_experiment(experiment_id: str) -> ExperimentResult:
    """Run one registered experiment by id, under its registered ref."""
    try:
        experiment = REGISTRY[experiment_id]
    except KeyError:
        raise ReproError(
            f"unknown experiment {experiment_id!r}; known: {sorted(REGISTRY)}"
        ) from None
    rows, notes = experiment.function()
    return ExperimentResult(experiment_id, experiment.paper_ref, rows, notes)


# ----------------------------------------------------------------------
# Table 1
# ----------------------------------------------------------------------


@register("table1", "Table 1", "Truth table of the reversible MAJ gate")
def experiment_table1() -> Outcome:
    rows: list[Row] = []
    for (paper_in, paper_out), (impl_in, impl_out) in zip(
        PAPER_TABLE_1, MAJ.truth_table_rows()
    ):
        rows.append(
            (
                f"MAJ({paper_in})",
                paper_out,
                impl_out,
                paper_in == impl_in and paper_out == impl_out,
            )
        )
    majority_ok = all(
        int(out[0]) == majority(parse_bits(inp)) for inp, out in MAJ.truth_table_rows()
    )
    rows.append(("first output bit is the majority", True, majority_ok, majority_ok))
    bijective = len(set(MAJ.table)) == len(MAJ.table)
    rows.append(("each input has a unique output", True, bijective, bijective))
    return rows, ""


# ----------------------------------------------------------------------
# Table 2
# ----------------------------------------------------------------------


@register(
    "table2",
    "Table 2",
    "Mixed 2D/1D concatenation thresholds rho(k)/rho_2",
)
def experiment_table2() -> Outcome:
    rows: list[Row] = []
    for computed, (k, width, paper_ratio) in zip(table2_rows(), PAPER_TABLE_2):
        width_ok = computed.width == width
        ratio_ok = abs(computed.threshold_ratio - paper_ratio) < 0.005
        rows.append((f"width(k={k})", width, computed.width, width_ok))
        rows.append(
            (
                f"rho(k={k})/rho_2",
                paper_ratio,
                round(computed.threshold_ratio, 4),
                ratio_ok,
            )
        )
    ratio_27 = table2_rows()[3].threshold_ratio
    claim = abs((1 - ratio_27) - 0.23) < 0.01
    rows.append(("27-bit strip is 23% below 2D", 0.23, round(1 - ratio_27, 4), claim))
    return rows, "Ratios follow from the no-initialisation thresholds 1/2109 and 1/273."


# ----------------------------------------------------------------------
# Figures
# ----------------------------------------------------------------------


@register("fig1", "Figure 1", "MAJ built from two CNOTs and a Toffoli")
def experiment_fig1() -> Outcome:
    construction = Circuit(3, name="fig1").cnot(0, 1).cnot(0, 2).toffoli(1, 2, 0)
    built = circuit_gate(construction, "fig1")
    match = built.same_action(MAJ)
    rows: list[Row] = [
        ("CNOT·CNOT·Toffoli equals MAJ", True, match, match),
        ("construction gate count", 3, len(construction), len(construction) == 3),
    ]
    return rows, ""


def _single_error_rows(
    circuit: Circuit, data_in: tuple[int, ...], data_out: tuple[int, ...]
) -> list[Row]:
    """The exhaustive fault-tolerance rows of a recovery circuit.

    Every codeword with at most one flipped bit, written to ``data_in``
    (every other wire starts at 0), must come back on ``data_out`` as
    the codeword; under any single fault at most one output bit may be
    wrong.
    """

    def embed(word):
        state = [0] * circuit.n_wires
        for wire, bit in zip(data_in, word):
            state[wire] = bit
        return tuple(state)

    def errors(output, codeword):
        return sum(output[wire] != bit for wire, bit in zip(data_out, codeword))

    corrected = True
    worst = 0
    for logical in (0, 1):
        codeword = THREE_BIT_CODE.encode(logical)
        for error_position in (None, 0, 1, 2):
            word = list(codeword)
            if error_position is not None:
                word[error_position] ^= 1
            corrected &= errors(run(circuit, embed(word)), codeword) == 0
        for fault in iter_single_faults(circuit):
            output = run_with_faults(circuit, embed(codeword), [fault])
            worst = max(worst, errors(output, codeword))
    return [
        ("corrects every single-bit input error", True, corrected, corrected),
        ("worst output errors under any single fault", "<= 1", worst, worst <= 1),
    ]


@register(
    "fig2",
    "Figure 2",
    "Nine-bit recovery circuit: exhaustive fault tolerance + g^2 scaling",
)
def experiment_fig2() -> Outcome:
    circuit = recovery_circuit()
    rows = _single_error_rows(circuit, DATA_WIRES, OUTPUT_WIRES)

    ops = len(circuit)
    rows.append(("operations incl. initialisation (E)", 8, ops, ops == 8))

    # The g^2-scaling row divides two small failure counts, so it needs
    # a floor on the trial budget to be statistically meaningful; the
    # bit-parallel engine makes 30k trials cheap enough to always afford.
    trials = max(trial_budget(), 30000)
    g_small, g_large = 2.5e-3, 5e-3
    # Both points share the cycle circuit, so the executor runs them as
    # one stacked plane array; each point keeps its frozen seed.
    scaling = measure_cycle_errors(
        ((g_small, 11), (g_large, 12)), trials, policy=execution_policy()
    )
    (error_small, _), (error_large, _) = scaling
    ratio = error_large / error_small if error_small > 0 else float("inf")
    quadratic = 2.0 <= ratio <= 8.0
    rows.append(
        (
            "logical error scales ~ g^2 (ratio for 2x g)",
            4.0,
            round(ratio, 2),
            quadratic,
        )
    )
    return rows, ""


@register(
    "fig3",
    "Figure 3",
    "Concatenation: compiled gate census and error suppression by level",
)
def experiment_fig3() -> Outcome:
    rows: list[Row] = []
    for level, expected in ((1, 21), (2, 441)):
        circuit, _ = concatenated_gate_circuit(MAJ, level)
        gates = gamma_census(circuit)["gates"]
        rows.append(
            (
                f"Gamma_{level} = (3(1+E))^{level}, E = 6",
                expected,
                gates,
                gates == expected,
            )
        )

    # Like fig2's scaling row, the strict level-2 < level-1 comparison
    # divides small failure counts and needs a trial floor to observe
    # any level-1 failures at all.
    trials = min(max(trial_budget(), 30000), 100000)
    gate_error = 4e-3
    # Two distinct circuits -> two executor groups; REPRO_PARALLEL fans
    # the groups out to a process pool.
    results = Executor(execution_policy()).run(
        [_concatenation_spec(level, trials, gate_error) for level in (1, 2)]
    )
    failures = {
        level: result.failure_fraction
        for level, result in zip((1, 2), results)
    }
    suppressed = failures[2] < failures[1]
    rows.append(
        (
            f"level-2 error < level-1 error at g={gate_error}",
            True,
            f"{failures[1]:.2e} -> {failures[2]:.2e}",
            suppressed,
        )
    )
    return rows, ""


@register(
    "fig4",
    "Figure 4",
    "2D tile layout: recovery locality and interleave direction costs",
)
def experiment_fig4() -> Outcome:
    rows: list[Row] = []
    circuit, _ = two_d_recovery_circuit(cycles=4)
    local = circuit_is_local(circuit, two_d_lattice())
    rows.append(("recovery local on the 3x3 tile (4 cycles)", True, local, local))
    ops_per_cycle = len(two_d_recovery_circuit(cycles=1)[0])
    rows.append(
        ("recovery ops per cycle (no routing needed)", 8, ops_per_cycle, ops_per_cycle == 8)
    )
    _, parallel = parallel_2d_schedule()
    rows.append(
        ("parallel interleave SWAPs", 9, parallel.total_swaps, parallel.total_swaps == 9)
    )
    _, perpendicular = perpendicular_2d_schedule()
    rows.append(
        (
            "perpendicular interleave SWAPs",
            12,
            perpendicular.total_swaps,
            perpendicular.total_swaps == 12,
        )
    )
    worst = max(parallel.max_swaps_per_codeword, perpendicular.max_swaps_per_codeword)
    rows.append(("max SWAPs on one logical bit", "<= 6", worst, worst <= 6))
    swap3 = max(parallel.max_swap3_per_codeword, perpendicular.max_swap3_per_codeword)
    rows.append(("SWAP3 per codeword after fusion", 3, swap3, swap3 == 3))
    return rows, ""


@register("fig5", "Figure 5", "SWAP3 is two SWAPs on three adjacent bits")
def experiment_fig5() -> Outcome:
    two_swaps = Circuit(3).swap(1, 2).swap(0, 1)
    as_gate = circuit_gate(two_swaps, "two-swaps")
    up_match = as_gate.same_action(SWAP3_UP)
    rows: list[Row] = [
        ("swap(1,2) then swap(0,1) = SWAP3_UP", True, up_match, up_match)
    ]
    other = Circuit(3).swap(0, 1).swap(1, 2)
    down_match = circuit_gate(other, "two-swaps-down").same_action(SWAP3_DOWN)
    rows.append(("swap(0,1) then swap(1,2) = SWAP3_DOWN", True, down_match, down_match))
    inverse = SWAP3_UP.inverse().same_action(SWAP3_DOWN)
    rows.append(("the two rotations are mutually inverse", True, inverse, inverse))
    return rows, ""


@register(
    "fig6",
    "Figure 6",
    "1D interleaving of three linearly adjacent codewords",
)
def experiment_fig6() -> Outcome:
    _, report = interleave_1d_schedule()
    rows: list[Row] = [
        ("total SWAPs", 45, report.total_swaps, report.total_swaps == 45),
        (
            "max SWAPs acting on a single codeword",
            24,
            report.max_swaps_per_codeword,
            report.max_swaps_per_codeword == 24,
        ),
        (
            "SWAP3 per codeword",
            12,
            report.max_swap3_per_codeword,
            report.max_swap3_per_codeword == 12,
        ),
    ]
    for include_init, expected in ((True, 40), (False, 38)):
        count = one_d_cycle_operation_count(include_init)
        label = "with" if include_init else "without"
        rows.append(
            (f"full 1D cycle ops per codeword ({label} init)", expected, count, count == expected)
        )
    return rows, ""


@register(
    "fig7",
    "Figure 7",
    "Fully 1D recovery circuit: locality, fault tolerance, census",
)
def experiment_fig7() -> Outcome:
    rows: list[Row] = []
    circuit = one_d_recovery_circuit(cycles=3)
    local = circuit_is_local(circuit, one_d_lattice())
    rows.append(("recovery local on the 9-site line (3 cycles)", True, local, local))

    routing = packed_census(one_d_routing_ops())
    swap3 = routing.get("SWAP3_UP", 0) + routing.get("SWAP3_DOWN", 0)
    rows.append(("routing SWAP3 gates", 4, swap3, swap3 == 4))
    rows.append(("routing plain SWAPs", 1, routing.get("SWAP", 0), routing.get("SWAP", 0) == 1))

    single = one_d_recovery_circuit(cycles=1)
    gate_ops = single.gate_count(include_resets=False)
    rows.append(("recovery gates excluding initialisation", 11, gate_ops, gate_ops == 11))

    rows += _single_error_rows(
        single, ONE_D_DATA_POSITIONS, ONE_D_DATA_POSITIONS
    )
    return rows, (
        "The physically local circuit initialises the three ancilla "
        "pairs with three 2-bit resets; the paper books the same six "
        "bit-initialisations as two 3-bit operations."
    )


# ----------------------------------------------------------------------
# Text claims
# ----------------------------------------------------------------------


@register(
    "thresholds",
    "Sections 2.2, 3.1, 3.2",
    "All six reported thresholds rho = 1/(3 C(G,2))",
)
def experiment_thresholds() -> Outcome:
    rows: list[Row] = []
    for scheme in PAPER_SCHEMES.values():
        denominator = threshold_denominator(scheme.operation_count)
        rows.append(
            (
                f"1/rho for {scheme.name} (G={scheme.operation_count})",
                scheme.paper_denominator,
                denominator,
                denominator == scheme.paper_denominator,
            )
        )
    ratio = threshold(38) / threshold(14)
    rows.append(
        (
            "1D threshold ~ order of magnitude below 2D",
            "~0.1",
            round(ratio, 3),
            0.05 < ratio < 0.2,
        )
    )
    return rows, ""


@register(
    "blowup",
    "Section 2.3",
    "Worked overhead example and poly-log exponents",
)
def experiment_blowup() -> Outcome:
    rows: list[Row] = []
    rho = threshold(9)
    report = plan_module(rho / 10.0, 9, 10**6)
    rows.append(("required level L (g=rho/10, T=10^6)", 2, report.level, report.level == 2))
    rows.append(("gate replacement factor", 441, report.gate_factor, report.gate_factor == 441))
    rows.append(("bit replacement factor", 81, report.bit_factor, report.bit_factor == 81))

    exponent = gate_overhead_exponent(11)
    rows.append(
        (
            "gate overhead exponent log2(3(G-2)), G=11",
            4.75,
            round(exponent, 3),
            abs(exponent - 4.75) < 0.01,
        )
    )
    bits = bit_overhead_exponent()
    rows.append(
        ("bit overhead exponent log2 9", 3.17, round(bits, 3), abs(bits - 3.17) < 0.01)
    )

    # O(T log^4.75 T): the per-gate factor at the minimal level is
    # bounded by a constant times (log2(T rho)/log2(rho/g))^4.755.
    bounded = True
    g = threshold(11) / 10.0
    for module_gates in (10**4, 10**6, 10**9, 10**12):
        plan = plan_module(g, 11, module_gates)
        x = log2(module_gates * threshold(11)) / log2(threshold(11) / g)
        bounded &= plan.gate_factor <= (2 * x) ** 4.755
    rows.append(("Gamma_L = O((log T)^4.75) for G=11", True, bounded, bounded))
    return rows, ""


@register(
    "entropy",
    "Section 4",
    "Entropy dissipation bounds and the measured ancilla entropy",
)
def experiment_entropy() -> Outcome:
    rows: list[Row] = []
    rows.append(("kappa", 4.327, round(KAPPA, 4), abs(KAPPA - 4.327) < 5e-4))
    level_limit = max_level_for_constant_entropy(1e-2, 11)
    rows.append(
        (
            "max level for O(1) entropy (g=1e-2, E=11)",
            2.3,
            round(level_limit, 2),
            abs(level_limit - 2.3) < 0.05,
        )
    )

    g = 1e-2
    ordered = True
    for level in (1, 2, 3):
        lower = entropy_lower_bound(g, 11, level)
        upper = entropy_upper_bound(g, 3 * 11, level)
        ordered &= lower <= upper
    rows.append(("lower bound <= upper bound (L=1..3)", True, ordered, ordered))

    # Measured: entropy of the six discarded wires after one recovery
    # cycle, which the next cycle's resets must erase.
    trials = trial_budget()
    layout = RecoveryLayout.standard()
    circuit = recovery_circuit()
    runner = NoisyRunner(NoiseModel(gate_error=g), seed=31)
    result = runner.run_from_input(circuit, (1, 1, 1) + (0,) * 6, trials)
    discarded_wires = [w for w in range(9) if w not in layout.advance().data]
    measured = empirical_entropy_from_columns(result.states.columns(discarded_wires))
    lower = g  # H_1 >= H(g/2) >= g for one noisy operation
    upper = 8 * single_gate_entropy(g)  # G-tilde = E = 8 operations
    within = lower <= measured <= upper
    rows.append(
        (
            f"measured discarded entropy at g={g} within bounds",
            f"[{lower:.3g}, {upper:.3g}]",
            round(measured, 4),
            within,
        )
    )
    return rows, ""


@register(
    "nand-cost",
    "Section 4, footnote 4",
    "3/2 bits is the optimal NAND entropy cost; MAJ^-1 achieves it",
)
def experiment_nand_cost() -> Outcome:
    rows: list[Row] = []
    maj_inv_cost = min_nand_cost(MAJ_INV)
    rows.append(("MAJ^-1 NAND cost (bits)", 1.5, maj_inv_cost, maj_inv_cost == 1.5))
    toffoli_cost = min_nand_cost(TOFFOLI)
    rows.append(("Toffoli NAND cost (bits)", 2.0, toffoli_cost, toffoli_cost == 2.0))
    result = search_all_gates()
    rows.append(
        (
            "optimum over all 40320 reversible 3-bit gates",
            1.5,
            result.minimum_entropy,
            isclose(result.minimum_entropy, 1.5),
        )
    )
    rows.append(
        (
            "gates searched",
            40320,
            result.total_gates_searched,
            result.total_gates_searched == 40320,
        )
    )
    return rows, (
        "The body text attributes <= 3/2 bits to 'a Toffoli gate'; the "
        "footnote's precise claim — 3/2 optimal, achieved by MAJ^-1 — "
        "is what holds (plain Toffoli costs 2 bits)."
    )


@register(
    "baseline",
    "Sections 1-2 (framing)",
    "Irreversible NAND multiplexing threshold vs the reversible schemes",
)
def experiment_baseline() -> Outcome:
    rows: list[Row] = []
    epsilon = critical_epsilon()
    same_order = 0.05 <= epsilon <= 0.15
    rows.append(
        (
            "NAND multiplexing threshold (paper: 'about 11%')",
            0.11,
            round(epsilon, 4),
            same_order,
        )
    )
    advantage = epsilon / threshold(9)
    rows.append(
        (
            "irreversible threshold / reversible G=9 threshold",
            ">= 5x",
            round(advantage, 1),
            advantage >= 5,
        )
    )

    trials = trial_budget()
    g, module_gates = 1e-3, 500
    measured = simulate_unprotected(g, module_gates, trials, seed=41)
    predicted = module_error(g, module_gates)
    close = abs(measured - predicted) < 0.15 * predicted + 0.01
    rows.append(
        (
            f"unprotected module error (g={g}, T={module_gates})",
            round(predicted, 4),
            round(measured, 4),
            close,
        )
    )
    return rows, (
        "The deterministic bundle-fraction limit of our multiplexing "
        "model degrades at ~0.14; the paper quotes 'about 11%'. Both "
        "sit 1-2 orders of magnitude above the reversible thresholds, "
        "which is the comparison the paper draws. The unprotected "
        "Monte-Carlo rate sits slightly below 1-(1-g)^T because a "
        "randomising fault can be silent or cancel."
    )


@register(
    "mc-threshold",
    "Section 2.2 (validation)",
    "Monte-Carlo pseudo-threshold is above the analytic bound 1/165",
)
def experiment_mc_threshold() -> Outcome:
    trials = min(trial_budget(), 100000)
    # Each escalation stage is one stacked run: the bracket endpoints
    # together, then each round's midpoint.  A stage that has to run,
    # unless it is the final one, also runs the next possible
    # midpoints' first stage.  Identical numbers to the sequential
    # per-stage evaluation (each slot keeps its pre-spawned stage
    # seeds), in a handful of stacked executions instead of dozens of
    # solo runs.
    result = find_pseudo_threshold_adaptive(
        lower=2e-3,
        upper=8e-2,
        trials=trials,
        iterations=8,
        seed=51,
        spec_builder=cycle_stage_spec,
        policy=execution_policy(),
    )
    analytic = threshold(11)
    above = result.estimate >= analytic
    rows: list[Row] = [
        (
            "pseudo-threshold vs analytic bound 1/165",
            f">= {analytic:.4g}",
            round(result.estimate, 4),
            above,
        )
    ]
    budget_note = (
        f"Budget-aware bisection: {result.evaluations} evaluations, "
        f"{result.trials_spent} total trials"
        + (
            ", stopped at the budget's statistical resolution"
            if result.resolution_limited
            else ""
        )
        + "."
    )
    return rows, (
        "Section 5: the quoted thresholds are lower bounds ('an "
        "existence proof'); the measured crossing is expected to be "
        "higher, and is.  " + budget_note
    )


def _op_shape(op) -> tuple:
    """An operation's structure up to legal operand symmetry.

    MAJ/MAJ⁻¹ are symmetric in their *last two* operands only, so the
    first (majority-target) wire keeps its role and just the tail
    collapses to a set; every other op compares by exact wires.  This
    is what "matches op for op" legitimately means for an optimiser
    output — collapsing all operands to a set would also equate
    circuits that write to different targets.
    """
    if op.label in library.MAJ_NAMES:
        return (op.label, op.wires[0], frozenset(op.wires[1:]))
    return (op.label, op.wires)


def _synth_rewrite_database() -> IdentityDatabase:
    """Rewrite material for the recovery workload, mined by the searcher.

    Committed next to its loader in ``repro.synth``; loading re-verifies
    every member by exhaustion, so the committed JSON is itself under test.
    """
    from repro.synth.database import DEFAULT_DATABASE_DIR

    return IdentityDatabase.load_or_mine(
        DEFAULT_DATABASE_DIR / "synth_identities.json",
        n_wires=3,
        gate_library=(CNOT, TOFFOLI, MAJ, MAJ_INV),
        max_gates=2,
    )


@register(
    "synth-peephole",
    "Section 2.2 (synthesis)",
    "Peephole-optimised redundant recovery cycle: fewer fault locations, "
    "same logical accuracy",
)
def experiment_synth_peephole() -> Outcome:
    processor = cycle_processor(2)
    canonical = processor.circuit
    redundant = inflate(canonical)
    report = optimize_report(redundant, database=_synth_rewrite_database())
    optimized = report.circuit
    rows: list[Row] = []

    removed = report.locations_removed_fraction
    rows.append(
        (
            "fault locations removed by optimize()",
            ">= 20%",
            f"{removed:.0%} ({report.locations_before['total']} -> "
            f"{report.locations_after['total']})",
            removed >= 0.20,
        )
    )
    applied = (
        report.identity_removals
        + report.cancellations
        + report.database_rewrites
    )
    verified = applied > 0 and report.verified_rewrites == applied
    rows.append(
        (
            "every applied rewrite verified by exhaustive equivalence",
            True,
            verified,
            verified,
        )
    )
    # MAJ is symmetric in its last two operands, so a rewrite may
    # legally emit (a, c, b) where the hand-written cycle says
    # (a, b, c); the target wire's role, and every other op's exact
    # wires, must still match.
    structural = [_op_shape(op) for op in optimized] == [
        _op_shape(op) for op in canonical
    ]
    rows.append(
        (
            "optimised cycle matches the canonical cycle op for op",
            True,
            structural,
            structural,
        )
    )

    # The executor round trip: the optimiser's outputs are ordinary
    # circuits, so the redundant, optimised, and canonical cycles run
    # as one stacked spec batch through the standard pipeline.
    trials = min(trial_budget(), 100000)
    gate_error = 5e-3
    physical = processor.physical_input((1, 0, 1))
    observable = DecodeObservable(processor, (1, 0, 1))
    specs = [
        RunSpec(
            circuit=circuit,
            input_bits=physical,
            observable=observable,
            noise=NoiseModel(gate_error=gate_error),
            trials=trials,
            seed=seed,
        )
        for circuit, seed in ((redundant, 71), (optimized, 72), (canonical, 73))
    ]
    noisy, optimum, reference = Executor(execution_policy()).run(specs)
    z = 3.0
    # The bound actually tested — and therefore printed — is the
    # redundant cycle's Wilson upper limit against the optimised
    # cycle's Wilson lower limit, not point estimate vs point estimate.
    noisy_upper = wilson_interval(noisy.failures, trials, z)[1]
    no_worse = wilson_interval(optimum.failures, trials, z)[0] <= noisy_upper
    rows.append(
        (
            f"logical error no worse after optimisation (g={gate_error})",
            f"<= {noisy_upper:.2e}",
            f"{optimum.failure_fraction:.2e}",
            no_worse,
        )
    )
    opt_low, opt_high = wilson_interval(optimum.failures, trials, z)
    ref_low, ref_high = wilson_interval(reference.failures, trials, z)
    consistent = opt_low <= ref_high and ref_low <= opt_high
    rows.append(
        (
            "optimised rate consistent with the canonical cycle",
            f"~ {reference.failure_fraction:.2e}",
            f"{optimum.failure_fraction:.2e}",
            consistent,
        )
    )
    return rows, (
        "The redundant cycle inflates every MAJ-family gate into its "
        "Figure-1 decomposition and pads it with commuting X pairs and "
        "doubled SWAPs; optimize() strips all of it back out via "
        "inverse-pair cancellation and identity-database rewrites, "
        "every splice re-verified by exhaustion.  Rates are "
        "Monte-Carlo estimates at the shared trial budget; the "
        "optimised and canonical cycles differ only in the wire order "
        "of symmetric MAJ operands, so their rates agree statistically "
        "but not bit for bit."
    )
