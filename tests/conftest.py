"""Shared fixtures and helpers for the test-suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.coding import THREE_BIT_CODE
from repro.local import ONE_D_DATA_POSITIONS


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic random generator per test."""
    return np.random.default_rng(12345)


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


#: Readable-but-wrong result blocks for the job layer's two readers
#: (store entries and shard checkpoints): each must raise ``JobError``
#: naming the file, never serve the counts or leak a bare
#: ``TypeError``/``KeyError``.  ``None`` as the field drops the block.
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


#: Well-formed JSON of the wrong shape for the job layer's three readers
#: (store entries, shard checkpoints, the job manifest): case ->
#: ``(key, replacement)``.  Key ``None`` replaces the whole document,
#: replacement :data:`DROP` deletes the key.  Each reader must raise
#: ``JobError`` naming the file, never leak ``AttributeError``/
#: ``KeyError``.
DROP = object()
WRONG_SHAPES = {
    "document-list": (None, []),
    "points-dict": ("points", {"a": 1}),
    "points-entry-list": ("points", [[]]),
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
