"""Every registered experiment must run and match the paper."""

from __future__ import annotations

import os

import pytest

from repro.harness.experiments import (
    REGISTRY,
    run_experiment,
    trial_budget,
)
from repro.harness import experiments_md
from repro.harness.experiments_md import (
    RECORD_PATH,
    format_result,
    recorded_ids,
    recorded_tables,
    render_record,
)

EXPECTED_IDS = {
    "table1",
    "table2",
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "thresholds",
    "blowup",
    "entropy",
    "nand-cost",
    "baseline",
    "mc-threshold",
    "synth-peephole",
}


class TestRegistry:
    def test_every_table_and_figure_registered(self):
        assert set(REGISTRY) == EXPECTED_IDS

    def test_unknown_id_rejected(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            run_experiment("fig99")

    def test_trial_budget_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRIALS", "123")
        assert trial_budget() == 123

    def test_duplicate_id_refused(self):
        from repro.errors import ReproError
        from repro.harness.experiments import register

        with pytest.raises(ReproError, match="duplicate experiment id 'fig1'"):
            register("fig1", "Figure 1", "a second Figure 1")(lambda: None)
        assert REGISTRY["fig1"].description != "a second Figure 1"

    def test_metadata_complete(self):
        for experiment in REGISTRY.values():
            assert experiment.paper_ref
            assert experiment.description


class TestExperimentsRecord:
    def test_record_sections_match_registry(self):
        # EXPERIMENTS.md is generated; its sections must be exactly the
        # registry ids, in registry order (the CI docs-consistency step
        # re-runs the registry too — here we just guard the structure).
        assert RECORD_PATH.exists(), (
            "EXPERIMENTS.md is missing; regenerate with "
            "`python -m repro.harness.experiments_md`"
        )
        assert recorded_ids(RECORD_PATH.read_text()) == list(REGISTRY)

    def test_render_covers_registry(self):
        assert recorded_ids(render_record()) == list(REGISTRY)

    def test_every_section_records_a_table(self):
        tables = recorded_tables(RECORD_PATH.read_text())
        assert list(tables) == list(REGISTRY)

    @pytest.mark.parametrize("drift", [False, True], ids=["in-sync", "moved"])
    def test_check_fails_when_a_recorded_number_moves(
        self, drift, tmp_path, monkeypatch
    ):
        # The deterministic Table 1 alone: its rendered table must
        # equal the recorded block digit for digit.
        table = format_result(run_experiment("table1"))
        if drift:
            table = table.replace("111    111", "111    110", 1)
        record = tmp_path / "EXPERIMENTS.md"
        record.write_text(f"## `table1` — Table 1\n\n```text\n{table}\n```\n")
        monkeypatch.setattr(experiments_md, "RECORD_PATH", record)
        monkeypatch.setattr(experiments_md, "REGISTRY", {"table1": REGISTRY["table1"]})
        assert experiments_md.check_record() == (1 if drift else 0)


@pytest.mark.parametrize("experiment_id", sorted(EXPECTED_IDS))
def test_experiment_matches_paper(experiment_id, monkeypatch):
    monkeypatch.setenv(
        "REPRO_TRIALS", os.environ.get("REPRO_TRIALS", "15000")
    )
    result = run_experiment(experiment_id)
    failing = [row for row in result.rows if not row[3]]
    assert result.all_match, f"{experiment_id}: mismatched rows {failing}"
    assert result.rows, "experiment produced no comparison rows"
