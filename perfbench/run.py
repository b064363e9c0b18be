"""Run one benchmark workload and print its metrics as a JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sweep-sparse --seed 17 --seconds 12 --trace 0

``--trace 0`` measures with tracing off and reports the end-to-end
metrics of ``BENCHMARK.json``; ``--trace 1`` alternates untraced and
traced iterations and reports the per-layer metrics.  The last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``;
the line before it holds the sample counts and the provenance (git sha,
source digest, Python, NumPy, CPU count, resolved execution policy).

Every run first strips ``REPRO_*`` from the environment, so the default
execution policy is what gets measured.  Set-up time is the median of
several fresh-interpreter probes (``child.py setup``).  Scratch files
live under ``.perfbench_work/`` in the checkout and are removed on exit.

``--smoke`` shrinks the trial budgets and probe count for the self-tests
in ``test_perfbench.py``; ``--corrupt-output`` replaces every output
before its check, so the self-tests can see a failed check counted.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 6
#: Untimed iterations before measuring (caches, allocator).
WARMUP = 1
MIN_SAMPLES = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, help="default: the seed the workload's ratio gate uses")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--corrupt-output", action="store_true")
    return parser.parse_args(argv)


class Tally:
    """Attempted and failed iterations of one run."""

    def __init__(self, corrupt: bool):
        self.corrupt = corrupt
        self.attempted = 0
        self.failed = 0

    def attempt(self, workload, run_iteration):
        """One checked iteration: its result tuple, or ``None`` if it raised.

        A result whose output fails the check is still returned (its time
        was spent), but counts as failed.
        """
        self.attempted += 1
        try:
            try:
                result = run_iteration()
            finally:
                extra = workload.after_iteration()
        except Exception:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None
        try:
            workload.check(None if self.corrupt else result[0])
        except Exception:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
        return result + (extra,)


def timed(iteration, reference: bool = True):
    """``iteration`` as a call returning ``(output, wall_s, parts)``.

    ``wall_s`` leaves out the reference loops run between the parts.
    """
    from perfbench.speed import Parts

    def run():
        parts = Parts(reference)
        start = time.perf_counter()
        output = iteration(parts)
        wall = time.perf_counter() - start - parts.loop_seconds
        return output, wall, parts

    return run


def setup_probes(name: str, seed: int, workdir: Path, indices: range) -> list[dict]:
    from perfbench.workloads import clean_env

    probes = []
    for index in indices:
        completed = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "child.py"), "setup", name, str(seed), str(workdir / f"probe-{index}")],
            cwd=ROOT,
            env=clean_env(),
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        probes.append(json.loads(completed.stdout.strip().splitlines()[-1]))
    return probes


def _passes(seconds: float, min_passes: int):
    """Count loop passes until ``seconds`` have gone and ``min_passes`` ran."""
    started = time.perf_counter()
    done = 0
    while done < min_passes or time.perf_counter() - started < seconds:
        yield done
        done += 1


def best_ms(seconds: list[float]) -> float | None:
    return min(seconds) * 1e3 if seconds else None


def wall_summary(walls: list[float]) -> dict:
    """Sample count, best, median and (with >= 100 samples) p90, in ms."""
    summary = {"samples": len(walls), "min": best_ms(walls)}
    if walls:
        summary["p50"] = statistics.median(walls) * 1e3
    if len(walls) >= 100:
        # The highest percentile with at least ten samples beyond it.
        summary["p90"] = statistics.quantiles(walls, n=10)[-1] * 1e3
    return summary


def measure_untraced(workload, seconds: float, min_samples: int, tally: Tally):
    """Iteration walls as measured, and each iteration's parts."""
    walls, samples = [], []
    for _ in range(WARMUP):
        tally.attempt(workload, timed(workload.iteration))
    for _ in _passes(seconds, min_samples):
        result = tally.attempt(workload, timed(workload.iteration))
        if result is not None:
            walls.append(result[1])
            samples.append(result[2])
    return walls, samples


def measure_traced(workload, seconds: float, min_samples: int, tally: Tally, workdir: Path):
    """Alternate untraced and traced iterations.

    Returns the walls of each, per-layer samples of the traced ones, and
    each adjacent pair's traced minus untraced wall.
    """
    from perfbench.layers import iteration_layers

    sink = workdir / "trace.json"
    untraced, traced, layers, overheads = [], [], [], []
    # No reference loops here: the untraced iterations are the traced
    # ones' baseline, and those run none.
    untimed = timed(workload.iteration, reference=False)
    for _ in range(WARMUP):
        tally.attempt(workload, untimed)
    for _ in _passes(seconds, min_samples):
        baseline = tally.attempt(workload, untimed)
        if baseline is not None:
            untraced.append(baseline[1])
        sink.unlink(missing_ok=True)
        result = tally.attempt(workload, lambda: workload.traced_iteration(sink))
        if result is not None:
            _, wall, root, counters, extra = result
            traced.append(wall)
            layers.append(iteration_layers(root, counters, extra))
            if baseline is not None:
                overheads.append(wall - baseline[1])
    return untraced, traced, layers, overheads


def git_sha() -> str | None:
    """HEAD of the checkout's git repository, if it has one."""
    if not (ROOT / ".git").exists():
        # Not the enclosing directory's repository, if there is one.
        return None
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return completed.stdout.strip() if completed.returncode == 0 else None


def source_digest() -> str:
    """SHA-256 over ``src/repro``'s Python files, for checkouts without git."""
    digest = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance() -> dict:
    import numpy

    from repro.noise.monte_carlo import resolve_engine
    from perfbench.workloads import POLICY, TRIALS

    return {
        "git_sha": git_sha(),
        "source_digest": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "policy": {
            "engine": resolve_engine(POLICY.engine, TRIALS),
            "backend": POLICY.backend,
            "fuse": POLICY.fuse,
        },
    }


def run(args, workdir: Path) -> tuple[dict, dict]:
    """Measure one workload; returns ``(details, result)``."""
    from perfbench import layers
    from perfbench.workloads import WORKLOADS

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = benchmark["per_layer" if args.trace else "end_to_end"]

    probe_count = 1 if args.smoke else SETUP_PROBES
    probes = setup_probes(args.workload, args.seed, workdir, range(probe_count - probe_count // 2))
    workload = WORKLOADS[args.workload](args.seed, args.smoke, workdir)
    workload.prepare()
    tally = Tally(args.corrupt_output)
    min_samples = 1 if args.smoke else MIN_SAMPLES
    if args.trace:
        layers.instrument_store()
        untraced, traced, samples, overheads = measure_traced(workload, args.seconds, min_samples, tally, workdir)
    else:
        walls, samples = measure_untraced(workload, args.seconds, min_samples, tally)
    # The other half of the set-up probes run after measuring, so together
    # they sample the machine across the whole run, not one moment of it.
    probes += setup_probes(args.workload, args.seed, workdir, range(len(probes), probe_count))

    details = {"workload": args.workload, "seed": args.seed, "setup_probes": len(probes)}
    if args.trace:
        values = {
            name: statistics.mean(sample.get(name, 0) for sample in samples)
            for name in {name for sample in samples for name in sample}
        }
        for metric, key in layers.SETUP_LAYERS.items():
            values[metric] = statistics.median(probe[key] for probe in probes)
        if overheads:
            # Pairs adjacent in time see the same host speed.
            values["obs.trace_overhead_ms"] = statistics.median(overheads) * 1e3
        details.update(
            samples={"untraced": len(untraced), "traced": len(traced)},
            # A mean, like the layer self times it bounds.
            traced_mean_ms=statistics.mean(traced) * 1e3 if traced else None,
            unattributed_ms=values.get("unattributed_ms", 0.0),
        )
    else:
        totals = [sum(parts.at_reference.values()) for parts in samples]
        names = list(samples[0].at_reference) if samples else []
        values = {
            "wall_ms.p50_at_ref": statistics.median(totals) * 1e3 if totals else None,
            "setup_s": statistics.median(probe["setup_s"] for probe in probes),
            "peak_rss_mb": workload.peak_rss_kb() / 1024,
        }
        details.update(
            wall_ms=wall_summary(walls),
            at_ref_ms=wall_summary(totals),
            part_p50_at_ref_ms={
                name: statistics.median(parts.at_reference[name] for parts in samples) * 1e3
                for name in names
            },
            setup_s=sorted(probe["setup_s"] for probe in probes),
            setup_measured_s=sorted(probe["setup_measured_s"] for probe in probes),
        )
    details["provenance"] = provenance()
    metrics = {
        m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in wanted
    }
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    return details, result


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: {ROOT} holds no src/repro to measure", file=sys.stderr)
        return 2
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    # One CPU for this process and its children, so the reference loops
    # run on the CPU whose speed the parts between them saw.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seed is None:
        args.seed = WORKLOADS[args.workload].default_seed
    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=scratch))
    try:
        details, result = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(details))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
