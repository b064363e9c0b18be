"""Every registered experiment must run and match the paper."""

from __future__ import annotations

import os

import pytest

from repro.harness.experiments import (
    REGISTRY,
    run_experiment,
    trial_budget,
)
import repro.report
from repro.report import (
    RECORD_PATH,
    format_result,
    recorded_tables,
    render_sections,
    split_record,
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


ABLATION_IDS = [
    "ablation-recovery-value",
    "ablation-storage-lifetime",
    "ablation-init-accuracy",
    "ablation-exact-threshold",
    "ablation-assembled-cycles",
]


class TestExperimentsRecord:
    def test_record_sections_match_registry(self):
        # The generated sections must be exactly the registry ids, in
        # registry order, between the hand-kept preamble and the
        # hand-kept Ablations part.
        preamble, sections, ablations = split_record(RECORD_PATH.read_text())
        assert preamble.startswith("# EXPERIMENTS")
        assert list(recorded_tables(sections)) == list(REGISTRY)
        # Headings and descriptions too: the generated part is exactly
        # what the registry renders around its recorded tables.
        assert render_sections(recorded_tables(sections)) == sections
        assert ablations.startswith("# Ablations\n")
        assert list(recorded_tables(ablations)) == ABLATION_IDS

    def test_rendered_sections_split_back_out(self):
        tables = {experiment_id: "table" for experiment_id in REGISTRY}
        text = "preamble\n\n" + render_sections(tables) + "\n# Ablations\n"
        assert split_record(text) == (
            "preamble\n\n", render_sections(tables), "# Ablations\n"
        )
        assert recorded_tables(text) == tables

    def test_check_fails_when_a_section_is_missing(
        self, tmp_path, monkeypatch, capsys
    ):
        record = tmp_path / "EXPERIMENTS.md"
        record.write_text("# EXPERIMENTS\n\n# Ablations\n")
        monkeypatch.setattr(repro.report, "RECORD_PATH", record)
        monkeypatch.setattr(repro.report, "REGISTRY", {"table1": REGISTRY["table1"]})
        assert repro.report.main(["--check"]) == 1
        out = capsys.readouterr().out
        assert "sections drifted from the experiment registry" in out
        assert "recorded: []" in out

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
        monkeypatch.setattr(repro.report, "RECORD_PATH", record)
        monkeypatch.setattr(repro.report, "REGISTRY", {"table1": REGISTRY["table1"]})
        assert repro.report.main(["--check"]) == (1 if drift else 0)


@pytest.mark.parametrize("experiment_id", sorted(EXPECTED_IDS))
def test_experiment_matches_paper(experiment_id, monkeypatch):
    monkeypatch.setenv(
        "REPRO_TRIALS", os.environ.get("REPRO_TRIALS", "15000")
    )
    result = run_experiment(experiment_id)
    failing = [row for row in result.rows if not row[3]]
    assert result.all_match, f"{experiment_id}: mismatched rows {failing}"
    assert result.rows, "experiment produced no comparison rows"


@pytest.mark.parametrize("experiment_id", list(REGISTRY))
def test_published_table(experiment_id, published_table):
    published_table(experiment_id, format_result(run_experiment(experiment_id)))
