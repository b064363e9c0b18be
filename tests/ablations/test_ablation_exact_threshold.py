"""Ablation: how conservative is Eq. 1's pair-counting bound?

Section 2.2 notes "a tighter bound will result in an improved error
threshold".  Exhaustive fault-pair enumeration computes the *exact*
quadratic failure coefficient of each recovery cycle, quantifying the
slack: most operation pairs are harmless, so the exact crossing sits
well above the paper's ``1/(3 C(G,2))``.
"""

from __future__ import annotations

from repro.harness.tables import format_table
from repro.noise.pair_analysis import analyse_one_d_cycle, analyse_recovery_cycle


def test_ablation_exact_threshold(published_table):
    nonlocal_analysis = analyse_recovery_cycle()
    one_d_analysis = analyse_one_d_cycle()

    rows = []
    for label, analysis in (
        ("Figure 2 (non-local)", nonlocal_analysis),
        ("Figure 7 (1D local)", one_d_analysis),
    ):
        rows.append(
            (
                label,
                analysis.operations,
                analysis.paper_bound_coefficient(),
                round(analysis.quadratic_coefficient, 3),
                f"1/{analysis.paper_bound_coefficient()}",
                f"{analysis.exact_threshold:.3g}",
            )
        )
    text = format_table(
        (
            "recovery cycle",
            "ops",
            "3C(E,2) bound",
            "exact c2",
            "bound thr.",
            "exact thr.",
        ),
        rows,
        title="Exact pair analysis vs the paper's pair-counting bound",
    )
    published_table("ablation-exact-threshold", text)

    # The fault-tolerance property: no single fault is harmful.
    assert nonlocal_analysis.harmful_single_faults == 0
    assert one_d_analysis.harmful_single_faults == 0
    # The exact coefficient is far below the counting bound.
    assert nonlocal_analysis.quadratic_coefficient < 0.1 * (
        nonlocal_analysis.paper_bound_coefficient()
    )
    # Locality costs fault pairs: 1D is strictly weaker.
    assert (
        one_d_analysis.quadratic_coefficient
        > nonlocal_analysis.quadratic_coefficient
    )
