"""The one-command report runner must execute and pass."""

from __future__ import annotations

import repro.report


def test_report_main_runs_all_experiments(monkeypatch, capsys):
    monkeypatch.setenv("REPRO_TRIALS", "8000")
    exit_code = repro.report.main()
    captured = capsys.readouterr().out
    assert exit_code == 0
    assert "all 16 experiments match the paper" in captured
    # Every experiment id appears in the output.
    for experiment_id in ("table1", "table2", "fig7", "nand-cost", "synth-peephole"):
        assert experiment_id in captured


def register_probe(monkeypatch, function, description):
    """Make ``function`` the registry's only experiment, id ``probe``."""
    from repro.harness import experiments

    registry = {"probe": experiments.Experiment("probe", "none", description, function)}
    monkeypatch.setattr(experiments, "REGISTRY", registry)
    monkeypatch.setattr(repro.report, "REGISTRY", registry)


def test_report_main_fails_when_an_experiment_mismatches(monkeypatch, capsys):
    register_probe(monkeypatch, lambda: ([("x", 1, 2, False)], ""), "always mismatches")
    assert repro.report.main() == 1
    out = capsys.readouterr().out
    assert "[FAIL] probe" in out
    assert "1 experiment(s) did not match the paper" in out


def test_plain_mode_prints_the_recorded_table_form(monkeypatch, capsys):
    # One text form per table: plain output is format_result's, the
    # blank line before the notes included.  The registry entry's id
    # and ref title the table.
    from repro.harness.experiments import ExperimentResult

    register_probe(monkeypatch, lambda: ([("x", 1, 1, True)], "a note"), "always matches")
    assert repro.report.main() == 0
    out = capsys.readouterr().out
    noted = ExperimentResult("probe", "none", [("x", 1, 1, True)], "a note")
    assert f"\n{repro.report.format_result(noted)}\n\n" in out
    assert "\n\nNotes: a note\n" in out


def test_write_regenerates_the_record_byte_for_byte(tmp_path, monkeypatch):
    # At the default budget a fresh run rewrites EXPERIMENTS.md to the
    # committed bytes, its hand-kept Ablations part included.
    monkeypatch.delenv("REPRO_TRIALS", raising=False)
    committed = repro.report.RECORD_PATH.read_text()
    record = tmp_path / "EXPERIMENTS.md"
    record.write_text(committed.replace("111    111", "111    110", 1))
    monkeypatch.setattr(repro.report, "RECORD_PATH", record)
    assert repro.report.main(["--write"]) == 0
    assert record.read_text() == committed


def test_unknown_arguments_print_usage(capsys):
    assert repro.report.main(["--run", "fig2"]) == 2
    assert "usage: python -m repro.report [--check | --write]" in capsys.readouterr().out
