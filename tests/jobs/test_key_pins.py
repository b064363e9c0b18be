"""Pinned point keys, job id and shard ids for one mixed sweep.

Store entries and job directories on disk are found by these hashes,
so a change to how a spec is written out must leave them byte-for-byte
where they are (or bump a format version on purpose).  The sweep mixes
two cycle counts, noisy and perfect resets, and a decoded-mismatch
observable over a hand-built logical processor.
"""

from __future__ import annotations

from repro.coding.logical import LogicalProcessor
from repro.core.library import CNOT
from repro.harness.threshold_finder import cycle_error_specs
from repro.jobs.runner import SweepJob
from repro.jobs.store import point_address
from repro.noise.model import NoiseModel
from repro.runtime.spec import (
    DecodedMismatchObservable,
    ExecutionPolicy,
    RunSpec,
)

POINT_KEYS = [
    "eb739f53def2ffa86b38273aa48006b0e14ad8e78ccfcdc0a91c9d26c519b4fd",
    "1dfaa926acffa21cc546bc8aee122a817da34b43a5edc4898cfd8a21c856c340",
    "e85efd1e83f9756dbdb480e89339ff0517682ead261d4b8493278b5762b529fe",
    "7fa4e47c12319a22c3a277f34a97a6883b679dc659fd761604a53a91fa813a9f",
]
JOB_ID = "5fbd4fccc4bf4797"
SHARD_IDS = ["s3ebf745ec4b2e23a", "s023bba7a5f8c03f0", "s0ac019b07b4cc7d3"]


def _mixed_sweep() -> list[RunSpec]:
    specs = cycle_error_specs(((2e-3, 11), (5e-3, 12)), 2000, cycles=2)
    specs += cycle_error_specs(
        ((2e-3, 13),), 640, cycles=1, include_resets=False
    )
    processor = LogicalProcessor(2)
    processor.apply(CNOT, 0, 1)
    specs.append(
        RunSpec(
            circuit=processor.circuit,
            input_bits=processor.physical_input((1, 0)),
            observable=DecodedMismatchObservable(processor, (1, 1)),
            noise=NoiseModel(gate_error=1e-3),
            trials=100,
            seed=5,
        )
    )
    return specs


def test_point_keys_are_pinned():
    assert [point_address(spec)[0] for spec in _mixed_sweep()] == POINT_KEYS


def test_job_and_shard_ids_are_pinned(tmp_path):
    job = SweepJob.submit(
        tmp_path / "job", _mixed_sweep(), ExecutionPolicy(), shard_size=2
    )
    assert job.job_id == JOB_ID
    assert [shard.shard_id for shard in job.shards] == SHARD_IDS


def test_reloaded_job_keeps_its_pinned_ids(tmp_path):
    SweepJob.submit(
        tmp_path / "job", _mixed_sweep(), ExecutionPolicy(), shard_size=2
    )
    job = SweepJob.load(tmp_path / "job")
    assert [key for key, _ in job.addresses] == POINT_KEYS
    assert job.job_id == JOB_ID
    assert [shard.shard_id for shard in job.shards] == SHARD_IDS
