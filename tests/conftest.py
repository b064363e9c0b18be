"""Shared fixtures and helpers for the test-suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.coding import THREE_BIT_CODE
from repro.core.simulator import run
from repro.local import ONE_D_DATA_POSITIONS
from repro.obs import metrics_snapshot


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic random generator per test."""
    return np.random.default_rng(12345)


@pytest.fixture
def published_table(monkeypatch):
    """Assert that a freshly built table equals its EXPERIMENTS.md block.

    Unsets ``REPRO_TRIALS`` first, so the table is built at the default
    budget the record holds, whatever budget the run was given.  On a
    difference the fresh table is printed, ready to paste.
    """
    from repro.report import RECORD_PATH, recorded_tables

    monkeypatch.delenv("REPRO_TRIALS", raising=False)
    blocks = recorded_tables(RECORD_PATH.read_text())

    def assert_published(table_id: str, table: str) -> None:
        if table != blocks.get(table_id):
            print(table)
        assert table == blocks.get(table_id), (
            f"{table_id}: the fresh table (printed above) differs from "
            "its EXPERIMENTS.md block"
        )

    return assert_published


class CounterDeltas:
    """How far each ``repro.obs`` counter has risen since construction.

    ``deltas["jobs.store.hit"]`` reads one counter's increase.  The
    counters are the only record of cache and store traffic, so tests
    assert on these deltas.  A name no code registered raises
    ``KeyError``: a renamed counter fails the test instead of reading 0.
    """

    def __init__(self) -> None:
        self._before = metrics_snapshot()["counters"]

    def __getitem__(self, name: str) -> int:
        return metrics_snapshot()["counters"][name] - self._before.get(name, 0)


def reference_outputs(circuit, rows) -> np.ndarray:
    """:func:`~repro.core.simulator.run` on every row, one trial at a time.

    The per-trial reference the bit-plane engine is checked against:
    ``rows`` is any ``(trials, wires)`` 0/1 sequence, and the result is
    the ``(trials, wires)`` uint8 matrix of final states.
    """
    outputs = [run(circuit, tuple(int(bit) for bit in row)) for row in rows]
    return np.array(outputs, dtype=np.uint8).reshape(len(outputs), circuit.n_wires)


def embed_codeword(codeword, data_wires, n_wires: int = 9) -> tuple[int, ...]:
    """Place a codeword on selected wires, zeros elsewhere."""
    state = [0] * n_wires
    for wire, bit in zip(data_wires, codeword):
        state[wire] = bit
    return tuple(state)


def embed_standard(codeword) -> tuple[int, ...]:
    """Codeword on wires 0,1,2 of the standard Figure-2 layout."""
    return tuple(codeword) + (0,) * 6


def embed_one_d(codeword) -> tuple[int, ...]:
    """Codeword on the 1D line's data positions 0, 3, 6."""
    return embed_codeword(codeword, ONE_D_DATA_POSITIONS)


def all_corrupted_codewords():
    """Every codeword with zero or one bit flipped, with its logical."""
    cases = []
    for logical in (0, 1):
        codeword = THREE_BIT_CODE.encode(logical)
        cases.append((logical, codeword))
        for position in range(3):
            cases.append((logical, THREE_BIT_CODE.corrupt(codeword, [position])))
    return cases


#: Readable-but-wrong result blocks for store entries, the job layer's
#: one result record: each must raise ``JobError`` naming the file,
#: never serve the counts or leak a bare ``TypeError``/``KeyError``.
#: ``None`` as the field drops the block.
MALFORMED_RESULTS = {
    "faulted-above-trials": ("faulted_trials", 5000),
    "faulted-negative": ("faulted_trials", -3),
    "faulted-string": ("faulted_trials", "7"),
    "failures-string": ("failures", "7"),
    "result-missing": (None, None),
}


def malform_result(holder: dict, case: str) -> None:
    """Apply one :data:`MALFORMED_RESULTS` case to ``holder["result"]``."""
    field, value = MALFORMED_RESULTS[case]
    if field is None:
        del holder["result"]
    else:
        holder["result"][field] = value


#: Well-formed JSON of the wrong shape for the job layer's two readers
#: (store entries, the job manifest): case -> ``(key, replacement)``.
#: Key ``None`` replaces the whole document,
#: replacement :data:`DROP` deletes the key.  Each reader must raise
#: ``JobError`` naming the file, never leak ``AttributeError``/
#: ``KeyError``.
DROP = object()
WRONG_SHAPES = {
    "document-list": (None, []),
    "specs-missing": ("specs", DROP),
    "shards-missing": ("shards", DROP),
    "job_id-missing": ("job_id", DROP),
}


def reshape(document: dict, case: str) -> object:
    """``document`` with one :data:`WRONG_SHAPES` case applied."""
    key, replacement = WRONG_SHAPES[case]
    if key is None:
        return replacement
    reshaped = dict(document)
    if replacement is DROP:
        del reshaped[key]
    else:
        reshaped[key] = replacement
    return reshaped


def reference_decode(computation, states) -> np.ndarray:
    """Byte-per-bit recursive majority decode of a concatenated batch.

    The reference for the packed ``decode_failure_plane``: every trial
    of every data wire is unpacked to a byte and voted on with integer
    sums, level by level.  Returns a ``(trials, n_logical)`` uint8 array.
    """

    def decode_block(block) -> np.ndarray:
        if block.level == 0:
            return states.column(block.base).astype(np.uint8)
        votes = np.stack(
            [decode_block(child) for child in block.data_blocks()], axis=1
        )
        return (votes.sum(axis=1) * 2 > 3).astype(np.uint8)

    return np.stack([decode_block(block) for block in computation.blocks], axis=1)


def reference_decode_failures(computation, states, expected) -> int:
    """Trials whose :func:`reference_decode` row differs from ``expected``."""
    decoded = reference_decode(computation, states)
    return int((decoded != np.asarray(expected, dtype=np.uint8)).any(axis=1).sum())
