"""End-to-end tests for the tools/jobs.py command line."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def jobs_cli():
    spec = importlib.util.spec_from_file_location(
        "tools_jobs", REPO_ROOT / "tools" / "jobs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SWEEP = ["--points", "4", "--trials", "300", "--shard-size", "2"]


class TestCliLifecycle:
    def test_interrupt_resume_collect(self, tmp_path, jobs_cli, capsys):
        job_dir = str(tmp_path / "job")

        # Interrupted submit: one shard only.
        rc = jobs_cli.main(["submit", job_dir, *SWEEP, "--max-shards", "1"])
        assert rc == 0
        assert "resubmit to finish" in capsys.readouterr().out

        # Status of an incomplete job exits 3.
        assert jobs_cli.main(["status", job_dir]) == 3
        assert "1/2 shards" in capsys.readouterr().out

        # Collect refuses while incomplete.
        assert jobs_cli.main(["collect", job_dir]) == 2
        assert "incomplete" in capsys.readouterr().err

        # Resume finishes the job; status then exits 0.
        assert jobs_cli.main(["submit", job_dir, *SWEEP]) == 0
        capsys.readouterr()
        assert jobs_cli.main(["status", job_dir]) == 0

        # Merged table is bit-identical to a serial in-process run.
        rc = jobs_cli.main(["collect", job_dir, "--check-serial"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "bit-identical" in out
        assert "gate_error" in out

    def test_completed_resubmit_simulates_nothing(
        self, tmp_path, jobs_cli, capsys
    ):
        job_dir = str(tmp_path / "job")
        assert jobs_cli.main(["submit", job_dir, *SWEEP]) == 0
        capsys.readouterr()
        assert jobs_cli.main(["submit", job_dir, *SWEEP]) == 0
        assert "0 points simulated" in capsys.readouterr().out

    def test_conflicting_sweep_reported_as_error(
        self, tmp_path, jobs_cli, capsys
    ):
        job_dir = str(tmp_path / "job")
        assert jobs_cli.main(["submit", job_dir, *SWEEP]) == 0
        capsys.readouterr()
        rc = jobs_cli.main(
            ["submit", job_dir, "--points", "4", "--trials", "999"]
        )
        assert rc == 2
        assert "different sweep" in capsys.readouterr().err


class TestCollect:
    def test_per_cycle_column_uses_the_jobs_cycle_count(
        self, tmp_path, jobs_cli, capsys
    ):
        # Regression: collect took the count from its own --cycles flag,
        # so a mismatched flag printed a wrong rate with no error.
        from repro.harness.threshold_finder import per_cycle_rate

        job_dir = str(tmp_path / "job")
        assert jobs_cli.main(["submit", job_dir, *SWEEP, "--cycles", "2"]) == 0
        capsys.readouterr()
        assert jobs_cli.main(["collect", job_dir]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == 4
        for row in rows:
            _, failures, trials, per_cycle, _, _ = row.split()
            expected = per_cycle_rate(int(failures), int(trials), 2)
            assert per_cycle == f"{expected:.4g}"

    def test_cycles_flag_is_gone(self, tmp_path, jobs_cli, capsys):
        job_dir = str(tmp_path / "job")
        assert jobs_cli.main(["submit", job_dir, *SWEEP]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit):
            jobs_cli.main(["collect", job_dir, "--cycles", "3"])
        assert "--cycles" in capsys.readouterr().err


class TestVerboseStatus:
    def test_verbose_shard_table_and_hit_ratio(
        self, tmp_path, jobs_cli, capsys
    ):
        job_dir = str(tmp_path / "job")
        assert jobs_cli.main(["submit", job_dir, *SWEEP, "--verbose"]) == 0
        captured = capsys.readouterr()
        # The submit heartbeat goes to stderr, one line per shard.
        assert captured.err.count("shard ") == 2

        assert jobs_cli.main(["status", job_dir, "--verbose"]) == 0
        out = capsys.readouterr().out
        assert "store hit ratio: 0/4 (0.0%)" in out
        assert out.count("done") == 2

    def test_verbose_is_observational_only(self, tmp_path, jobs_cli, capsys):
        # Exit contract unchanged: incomplete job still exits 3 under
        # --verbose, and pending shards render without stats.
        job_dir = str(tmp_path / "job")
        assert (
            jobs_cli.main(["submit", job_dir, *SWEEP, "--max-shards", "1"])
            == 0
        )
        capsys.readouterr()
        assert jobs_cli.main(["status", job_dir, "--verbose"]) == 3
        out = capsys.readouterr().out
        assert "pending" in out

    def test_done_shard_without_run_log_renders_dashes(
        self, tmp_path, jobs_cli, capsys
    ):
        # A run log is observational: without one, a shard the store
        # completes is still done, and its stats render as dashes.
        job_dir = tmp_path / "job"
        assert jobs_cli.main(["submit", str(job_dir), *SWEEP]) == 0
        capsys.readouterr()
        logs = sorted((job_dir / "shards").glob("*.json"))
        assert len(logs) == 2
        logs[0].unlink()
        logs[1].write_text("{torn")
        assert jobs_cli.main(["status", str(job_dir), "--verbose"]) == 0
        rows = capsys.readouterr().out.splitlines()[2:]
        assert len(rows) == 2
        for row in rows:
            assert row.split()[2:] == ["done", "-", "-", "-"]
