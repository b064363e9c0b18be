"""Command-line front end for the repro.jobs sweep service.

Three subcommands over a job directory::

    python tools/jobs.py submit  JOB_DIR [sweep options]   # create + run
    python tools/jobs.py status  JOB_DIR [--verbose]       # progress
    python tools/jobs.py collect JOB_DIR [--check-serial]  # merged table

``status`` counts a shard done when the result store holds every one
of its points.  ``status --verbose`` adds a per-shard table (points,
elapsed seconds, simulated vs store-served split, read from each
shard's run log under ``shards/``; ``-`` when a done shard has none,
or a log written for another job or shard)
and the job's overall store hit ratio; the exit contract (0 complete,
3 pending) is unchanged.  ``submit --verbose`` prints a
per-shard heartbeat to stderr as shards finish.

``submit`` builds a Figure-2-style cycle-error sweep — a geometric
grid of gate-error points (:func:`repro.harness.sweep.geometric_grid`)
with per-point seeds spawned from one master seed
(:func:`repro.noise.seeds.spawn_seeds`), turned into specs by
:func:`repro.harness.threshold_finder.cycle_error_specs` — then
submits it as a sharded job and runs it.  Submit is idempotent:
re-running the same command against the same directory resumes,
skipping the shards whose points the result store holds and serving
stored points of the rest.  ``--max-shards`` deliberately stops early
(how the CI smoke test simulates a crash); a later submit or a bare
``submit`` with the same arguments finishes the job.

``collect`` reads each point's cycle count from its spec (the cycle
decoder records two logical gates per cycle) for the per-cycle column.
``collect --check-serial`` re-runs the whole sweep through a plain
in-process :meth:`~repro.runtime.Executor.run` and fails unless the
results read back from the store are bit-identical — the job layer's core
guarantee, checkable from the shell.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.coding.logical import LogicalProcessor
from repro.errors import JobError, ReproError
from repro.harness.stats import RateEstimate
from repro.harness.sweep import geometric_grid
from repro.harness.threshold_finder import cycle_error_specs, per_cycle_rate
from repro.jobs import DEFAULT_SHARD_SIZE, SweepJob
from repro.noise.seeds import spawn_seeds
from repro.runtime import ExecutionPolicy, Executor


def _build_specs(arguments: argparse.Namespace):
    grid = geometric_grid(arguments.start, arguments.stop, arguments.points)
    seeds = spawn_seeds(arguments.seed, arguments.points)
    return cycle_error_specs(
        tuple(zip(grid, seeds)),
        arguments.trials,
        cycles=arguments.cycles,
    )


def cmd_submit(arguments: argparse.Namespace) -> int:
    specs = _build_specs(arguments)
    policy = ExecutionPolicy.from_env()
    if arguments.workers is not None:
        policy = replace(policy, parallel=arguments.workers)
    job = SweepJob.submit(
        arguments.job_dir,
        specs,
        policy,
        shard_size=arguments.shard_size,
    )
    print(f"job {job.job_id}: {len(specs)} points in {len(job.shards)} shards")
    if arguments.no_run:
        return 0

    def heartbeat(done, pending_total, shard_id, elapsed_s):
        print(
            f"  shard {shard_id} done ({done}/{pending_total} pending, "
            f"{elapsed_s:.2f}s)",
            file=sys.stderr,
        )

    report = job.run(
        max_shards=arguments.max_shards,
        on_progress=heartbeat if arguments.verbose else None,
    )
    print(
        f"ran {report.shards_run} shards ({report.shards_skipped} already "
        f"done), {report.simulated_points} points simulated, "
        f"{report.cached_points} served from the store"
    )
    if report.interrupted:
        print("stopped at --max-shards; resubmit to finish")
    return 0


def cmd_status(arguments: argparse.Namespace) -> int:
    job = SweepJob.load(arguments.job_dir)
    status = job.status()
    print(status)
    if arguments.verbose:
        simulated = 0
        cached = 0
        print(f"{'shard':>17} {'points':>7} {'state':>8} {'elapsed':>9} {'sim':>5} {'hit':>5}")
        for row in job.shard_stats():
            state = "done" if row["done"] else "pending"
            elapsed = (
                f"{row['elapsed_s']:.2f}s"
                if row["elapsed_s"] is not None
                else "-"
            )
            sim = "-" if row["simulated"] is None else str(row["simulated"])
            hit = "-" if row["cached"] is None else str(row["cached"])
            print(
                f"{row['shard_id']:>17} {row['points']:>7} {state:>8} "
                f"{elapsed:>9} {sim:>5} {hit:>5}"
            )
            simulated += row["simulated"] or 0
            cached += row["cached"] or 0
        total = simulated + cached
        if total:
            print(
                f"store hit ratio: {cached}/{total} "
                f"({100.0 * cached / total:.1f}%)"
            )
    return 0 if status.complete else 3


def _cycles(spec) -> int:
    """The identity cycles a cycle-error spec runs: two logical gates each."""
    decoder = getattr(spec.observable, "decoder", None)
    if not isinstance(decoder, LogicalProcessor):
        raise JobError(
            "collect reads cycle-error sweeps; a spec of this job has no "
            "cycle decoder"
        )
    return decoder.logical_gates_applied // 2


def cmd_collect(arguments: argparse.Namespace) -> int:
    job = SweepJob.load(arguments.job_dir)
    results = job.collect()
    print(
        f"{'gate_error':>12} {'failures':>9} {'trials':>8} "
        f"{'per_cycle':>11} {'wilson_low':>11} {'wilson_high':>11}"
    )
    for spec, result in zip(job.specs, results):
        estimate = RateEstimate(
            failures=result.failures, trials=result.trials
        )
        low, high = estimate.interval
        cycle_rate = per_cycle_rate(
            result.failures, result.trials, _cycles(spec)
        )
        print(
            f"{spec.noise.gate_error:>12.6g} {result.failures:>9} "
            f"{result.trials:>8} {cycle_rate:>11.4g} {low:>11.4g} "
            f"{high:>11.4g}"
        )
    if arguments.check_serial:
        serial = Executor(job.policy).run(job.specs)
        if serial != results:
            mismatches = [
                index
                for index, (a, b) in enumerate(zip(serial, results))
                if a != b
            ]
            print(
                f"MISMATCH: merged shard results differ from a serial "
                f"Executor.run at point indices {mismatches}",
                file=sys.stderr,
            )
            return 4
        print("check-serial: merged results bit-identical to serial run")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tools/jobs.py", description=__doc__.splitlines()[0]
    )
    commands = parser.add_subparsers(dest="command", required=True)

    submit = commands.add_parser(
        "submit", help="create (or resume) a sharded cycle-error sweep"
    )
    submit.add_argument("job_dir", type=Path)
    submit.add_argument("--points", type=int, default=10)
    submit.add_argument("--start", type=float, default=1e-3)
    submit.add_argument("--stop", type=float, default=2e-2)
    submit.add_argument("--trials", type=int, default=10_000)
    submit.add_argument("--cycles", type=int, default=1)
    submit.add_argument(
        "--seed",
        type=int,
        default=2005,
        help="master seed; per-point seeds are spawned from it",
    )
    submit.add_argument("--shard-size", type=int, default=DEFAULT_SHARD_SIZE)
    submit.add_argument(
        "--workers",
        type=int,
        default=None,
        help="process-pool width (default: the policy's REPRO_PARALLEL)",
    )
    submit.add_argument(
        "--max-shards",
        type=int,
        default=None,
        help="stop after this many pending shards (interrupt simulation)",
    )
    submit.add_argument(
        "--no-run", action="store_true", help="plan and write the manifest only"
    )
    submit.add_argument(
        "--verbose",
        action="store_true",
        help="print a per-shard heartbeat to stderr while running",
    )
    submit.set_defaults(func=cmd_submit)

    status = commands.add_parser("status", help="print job progress")
    status.add_argument("job_dir", type=Path)
    status.add_argument(
        "--verbose",
        action="store_true",
        help="per-shard table (elapsed, simulated/cached split) plus the "
        "store hit ratio",
    )
    status.set_defaults(func=cmd_status)

    collect = commands.add_parser(
        "collect", help="merge shard results into the sweep table"
    )
    collect.add_argument("job_dir", type=Path)
    collect.add_argument(
        "--check-serial",
        action="store_true",
        help="re-run the sweep in-process and require bit-identity",
    )
    collect.set_defaults(func=cmd_collect)
    return parser


def main(argv: list[str] | None = None) -> int:
    arguments = build_parser().parse_args(argv)
    try:
        return arguments.func(arguments)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
