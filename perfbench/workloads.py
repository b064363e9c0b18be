"""The benchmark's workloads: inputs from a seed, one iteration, one check.

Every workload builds its inputs from the run seed in :meth:`prepare`
(untimed), runs one timed :meth:`iteration`, and compares the iteration's
output with an expected value computed outside the timed region.  An
iteration that raises or whose output differs counts as failed.

All execution uses the default :class:`~repro.runtime.ExecutionPolicy`;
``run.py`` strips every ``REPRO_*`` variable before this module is
imported, so nothing in the environment can change what is measured.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

from repro.backends import get_backend
from repro.core.compiled import compile_circuit
from repro.harness.sweep import geometric_grid
from repro.harness.threshold_finder import (
    cycle_error_specs,
    cycle_stage_spec,
    find_pseudo_threshold_adaptive,
)
from repro.noise.seeds import spawn_seeds
from repro.obs import (
    disable_tracing,
    enable_tracing,
    flush_trace,
    metrics_snapshot,
    trace,
)
from repro.runtime import ExecutionPolicy, Executor

from perfbench.layers import counter_deltas, iteration_root
from perfbench.speed import Parts

ROOT = Path(__file__).resolve().parent.parent

POLICY = ExecutionPolicy()
TRIALS = 100_000
SMOKE_TRIALS = 2_000
#: Trials of the single call a set-up probe makes on cold caches.
PROBE_TRIALS = 64

#: The sub-threshold storage sweep of the runtime and jobs gates.
SWEEP_POINTS = 10
SWEEP_CYCLES = 3
SWEEP_RANGE = (1e-4, 2e-3)

#: The ``mc-threshold`` search settings.
SEARCH = dict(lower=2e-3, upper=8e-2, iterations=8)
#: Searches per threshold-search iteration, and the ``trials_spent`` each
#: must cost, in units of the full budget: 343,750 trials at 100k, what
#: the ``mc-threshold`` experiment (seed 51) spends.  A search's cost is
#: set by its seed, so a run keeps the first spawned seeds that cost
#: this much: the seed changes the data, never the work.
SEARCH_COUNT = 8
SEARCH_COST = 3.4375
SEARCH_CANDIDATES = 400


class CheckFailed(Exception):
    """An iteration's output differs from the expected output."""


def clean_env(**extra: str) -> dict[str, str]:
    """This process's environment without ``REPRO_*``, plus ``extra``."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    env.update(extra)
    return env


def cold_compile(circuit) -> dict[str, float]:
    """Compile and prepare ``circuit`` on cold caches, timing each."""
    start = time.perf_counter()
    compiled = compile_circuit(circuit, fuse=POLICY.fuse, cache=POLICY.compile_cache)
    compiled_at = time.perf_counter()
    get_backend(POLICY.backend).prepare(compiled)
    prepared_at = time.perf_counter()
    return {
        "compile_ms": (compiled_at - start) * 1e3,
        "prepare_ms": (prepared_at - compiled_at) * 1e3,
    }


def sweep_specs(seed: int, trials: int):
    """The 10-point sweep: g on a geometric grid, one spawned seed each."""
    grid = geometric_grid(*SWEEP_RANGE, SWEEP_POINTS)
    points = list(zip(grid, spawn_seeds(seed, SWEEP_POINTS)))
    return cycle_error_specs(points, trials, cycles=SWEEP_CYCLES)


class Workload:
    """One named workload; subclasses fill in the four hooks."""

    name = ""
    #: The seed of the ratio gate this workload supersedes.
    default_seed = 17
    #: Whether set-up ends after the import (a fresh report process
    #: pays nothing else before its first experiment).
    setup_is_import = False

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        self.seed = seed
        self.smoke = smoke
        self.trials = SMOKE_TRIALS if smoke else TRIALS
        self.workdir = workdir
        self.expected = None

    # -- hooks ---------------------------------------------------------

    def prepare(self) -> None:
        """Build the inputs and ``self.expected`` (untimed)."""
        raise NotImplementedError

    def iteration(self, parts: Parts):
        """One timed unit of work, its parts timed into ``parts``.

        Returns the output to check.
        """
        raise NotImplementedError

    def probe_specs(self):
        """Specs on this workload's circuit for the set-up probe."""
        return sweep_specs(self.seed, PROBE_TRIALS)

    def probe_call(self, specs) -> None:
        """The set-up probe's one call on ``specs``."""
        Executor(POLICY).run(specs)

    # -- shared behaviour ----------------------------------------------

    def check(self, output) -> None:
        if output != self.expected:
            raise CheckFailed(f"{self.name}: output differs from the expected output")

    def after_iteration(self) -> dict[str, int]:
        """Untimed clean-up; returns extra per-iteration counts."""
        return {}

    def setup_probe(self) -> dict[str, float]:
        """Cold compile + prepare, then one call (in a fresh interpreter)."""
        specs = self.probe_specs()
        timings = cold_compile(specs[0].circuit)
        if not self.setup_is_import:
            self.probe_call(specs)
        return timings

    def traced_iteration(self, sink: Path):
        """One iteration under a fresh tracer.

        Returns ``(output, wall_s, root_span, counters)``: the iteration's
        ``bench.iteration`` span tree and its ``repro.obs`` counter deltas.
        """
        before = metrics_snapshot()["counters"]
        enable_tracing(str(sink))
        try:
            start = time.perf_counter()
            with trace("bench.iteration"):
                output = self.iteration(Parts(reference=False))
            wall = time.perf_counter() - start
            flush_trace()
        finally:
            disable_tracing()
        document = json.loads(sink.read_text())
        counters = counter_deltas(before, document["metrics"]["counters"])
        return output, wall, iteration_root(document), counters

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class SweepSparse(Workload):
    """One Executor.run over the 10-point x 100k-trial 3-cycle sweep."""

    name = "sweep-sparse"

    def prepare(self) -> None:
        self.specs = sweep_specs(self.seed, self.trials)
        executor = Executor(POLICY)
        # The executor's bit-identity contract: each stacked point equals
        # the same spec run alone.
        self.expected = [executor.run([spec])[0] for spec in self.specs]
        self.check(self.expected)
        self.executor = executor

    def iteration(self, parts: Parts):
        with parts.timed("run"):
            return self.executor.run(self.specs)

    def check(self, output) -> None:
        super().check(output)
        for result in output:
            if not 0 <= result.failures <= result.faulted_trials <= result.trials:
                raise CheckFailed(f"{self.name}: counts out of order in {result}")


class ThresholdSearch(Workload):
    """A panel of mc-threshold pseudo-threshold searches."""

    name = "threshold-search"
    default_seed = 51

    def _search(self, seed: int):
        return find_pseudo_threshold_adaptive(
            trials=self.trials,
            seed=seed,
            spec_builder=cycle_stage_spec,
            policy=POLICY,
            **SEARCH,
        )

    def prepare(self) -> None:
        from repro.analysis.threshold import threshold

        self.bound = threshold(11)
        candidates = [self.seed] + spawn_seeds(self.seed, SEARCH_CANDIDATES)
        if self.smoke:
            self.seeds = candidates[:2]
            self.expected = [self._search(seed) for seed in self.seeds]
        else:
            self.seeds, self.expected = [], []
            for seed in candidates:
                result = self._search(seed)
                if result.trials_spent == SEARCH_COST * self.trials:
                    self.seeds.append(seed)
                    self.expected.append(result)
                if len(self.seeds) == SEARCH_COUNT:
                    break
            else:
                raise CheckFailed(
                    f"{self.name}: {SEARCH_CANDIDATES} candidate seeds gave "
                    f"fewer than {SEARCH_COUNT} searches of "
                    f"{SEARCH_COST * self.trials:,.0f} trials"
                )
        self.check(self.expected)

    def iteration(self, parts: Parts):
        results = []
        for index, seed in enumerate(self.seeds):
            with parts.timed(f"search-{index}"):
                results.append(self._search(seed))
        return results

    def check(self, output) -> None:
        super().check(output)
        for result in output:
            if result.estimate < self.bound:
                raise CheckFailed(
                    f"{self.name}: estimate {result.estimate} is below the "
                    f"analytic threshold {self.bound}"
                )

    def probe_specs(self):
        return [
            cycle_stage_spec(g, PROBE_TRIALS, seed)
            for g, seed in zip(
                (SEARCH["lower"], SEARCH["upper"]), spawn_seeds(self.seed, 2)
            )
        ]


class JobsSweep(Workload):
    """The sweep as a serial SweepJob, computed cold, then served warm.

    The cold step submits, runs and collects into a fresh job directory,
    writing the manifest, store entries and checkpoints.  The warm step
    clears the checkpoints (untimed), so resubmitting serves every point
    from the store, then re-queries the store through a fresh
    ``CachingExecutor``, as ``test_perf_jobs_store`` does: reads only,
    zero simulation.
    """

    name = "jobs-sweep"
    shard_size = 2

    def prepare(self) -> None:
        self.specs = sweep_specs(self.seed, self.trials)
        results = Executor(POLICY).run(self.specs)
        # Every step equals a serial run; the warm ones simulate nothing.
        self.expected = (results, results, 0, results, 0)
        self.count = 0

    @property
    def job_dir(self) -> Path:
        return self.workdir / f"job-{self.count}"

    def _submit_run_collect(self, job_dir: Path, specs, parts: Parts, step: str = ""):
        from repro.jobs import SweepJob

        with parts.timed(f"{step}submit"):
            job = SweepJob.submit(job_dir, specs, policy=POLICY, shard_size=self.shard_size)
        with parts.timed(f"{step}run"):
            report = job.run()
        with parts.timed(f"{step}collect"):
            return report, job.collect()

    def iteration(self, parts: Parts):
        from repro.jobs import CachingExecutor, ResultStore

        self.started_ns = time.time_ns()
        _, cold = self._submit_run_collect(self.job_dir, self.specs, parts)
        # Keep the store, drop the checkpoints: the resubmit then finds
        # every shard pending and every point stored.
        shutil.rmtree(self.job_dir / "shards")
        report, warm = self._submit_run_collect(self.job_dir, self.specs, parts, "warm-")
        with parts.timed("warm-requery"):
            caching = CachingExecutor(ResultStore(self.job_dir / "store"), policy=POLICY)
            requeried = caching.run(self.specs)
        return cold, warm, report.simulated_points, requeried, caching.simulated_points

    def _bytes_written(self) -> dict[str, int]:
        stats = (path.stat() for path in (self.job_dir / "store").rglob("*.json"))
        written = sum(st.st_size for st in stats if st.st_mtime_ns >= self.started_ns)
        return {"jobs.store.bytes_written": written}

    def after_iteration(self) -> dict[str, int]:
        counts = self._bytes_written()
        shutil.rmtree(self.job_dir, ignore_errors=True)
        self.count += 1
        return counts

    def probe_call(self, specs) -> None:
        self._submit_run_collect(self.workdir / "probe", specs, Parts(reference=False))


class ReportCold(Workload):
    """One fresh process running ``repro.report`` per iteration."""

    name = "report-cold"
    setup_is_import = True

    def _env(self) -> dict[str, str]:
        return clean_env(REPRO_TRIALS=str(SMOKE_TRIALS)) if self.smoke else clean_env()

    def prepare(self) -> None:
        from repro.harness.experiments import REGISTRY

        self.expected = (0, f"all {len(REGISTRY)} experiments match the paper")

    def _report(self, loops: bool, *trace_path: str) -> tuple[tuple, dict, float]:
        """Run ``child.py report`` once: ``(output, timings, wall_s)``."""
        start = time.perf_counter()
        completed = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "child.py"), "report", str(int(loops)), *trace_path],
            cwd=ROOT,
            env=self._env(),
            capture_output=True,
            text=True,
            timeout=150,
            check=False,
        )
        wall = time.perf_counter() - start
        timings = json.loads(completed.stdout)
        return (completed.returncode, timings["last_line"]), timings, wall

    def iteration(self, parts: Parts):
        before = parts.last_loop or parts.loop()
        output, timings, wall = self._report(parts.reference)
        after = parts.loop()
        # The child timed its import and each experiment itself.
        for name, seconds in timings["seconds"].items():
            parts.add(name, seconds, timings["at_reference"][name])
        # Interpreter start, printing and exit: the rest of the process's
        # wall time, less the child's own reference loops.
        rest = wall - sum(timings["seconds"].values()) - timings["loop_s"]
        parts.add_between("rest", rest, before, after)
        parts.loop_seconds += timings["loop_s"]
        return output

    def traced_iteration(self, sink: Path):
        output, _, wall = self._report(False, str(sink))
        document = json.loads(sink.read_text())
        return output, wall, iteration_root(document), document["metrics"]["counters"]

    def probe_specs(self):
        # The mc-threshold circuit: compile and prepare are timed after
        # the import, outside set-up.
        return [cycle_stage_spec(SEARCH["lower"], PROBE_TRIALS, self.seed)]

    def peak_rss_kb(self) -> int:
        # Report processes are the largest children this run reaps.
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


WORKLOADS = {
    cls.name: cls for cls in (SweepSparse, ThresholdSearch, JobsSweep, ReportCold)
}
