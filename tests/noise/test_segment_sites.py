"""The fault kernel's bookkeeping against a ``np.bitwise_or.at`` reference.

``_segment_sites`` collapses sorted virtual fault positions into one
site per faulted (op, word) with its packed select word, bounds each
op's sites with one ``searchsorted`` of the op boundaries, and ORs the
selects into the point's fault plane through dense blocks of at most
``_PLANE_BLOCK_OPS`` op rows.  :func:`reference_sites` computes the same
four arrays the direct way, with ``np.unique``, ``np.bincount`` and
``np.bitwise_or.at``.  A site whose only bits are padding keeps its
place (select 0) and its replacement words: the replacement block is
part of the RNG stream.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.bitplane import words_for
from repro.core.circuit import Circuit
from repro.core.compiled import compile_circuit
from repro.noise.model import NoiseModel
from repro.noise.monte_carlo import (
    _PLANE_BLOCK_OPS,
    _bernoulli_positions,
    _draw_phase,
    _segment_sites,
    _stack_plan,
)


def reference_sites(virtual, n_words, trials, n_ops):
    """``(segments, bounds, select, fault_plane)`` by ``np.bitwise_or.at``."""
    segments, segment = np.unique(virtual >> 6, return_inverse=True)
    bits = np.left_shift(np.uint64(1), (virtual & 63).astype(np.uint64))
    select = np.zeros(segments.size, dtype=np.uint64)
    np.bitwise_or.at(select, segment, bits)
    op_of, word_of = np.divmod(segments, n_words)
    bounds = np.zeros(n_ops + 1, dtype=np.int64)
    np.cumsum(np.bincount(op_of, minlength=n_ops), out=bounds[1:])
    if trials % 64:
        select[word_of == n_words - 1] &= np.uint64((1 << (trials % 64)) - 1)
    fault_plane = np.zeros(n_words, dtype=np.uint64)
    np.bitwise_or.at(fault_plane, word_of, select)
    return segments, bounds, select, fault_plane


def assert_matches_reference(virtual, n_words, trials, n_ops):
    # _segment_sites overwrites its input, so hand it a copy.
    got = _segment_sites(virtual.copy(), n_words, trials, n_ops)
    for name, actual, expected in zip(
        ("segments", "bounds", "select", "fault_plane"),
        got,
        reference_sites(virtual, n_words, trials, n_ops),
    ):
        np.testing.assert_array_equal(actual, expected, err_msg=name)
    return got


@pytest.mark.parametrize(
    "ops, trials, probability",
    [
        (150, 320, 0.05),  # trials % 64 == 0, three op blocks
        (150, 321, 0.05),  # a padded last word, three op blocks
        (54, 6250, 0.0386),  # the threshold search's point shape
        (200, 100, 0.002),  # sparse: some op blocks draw nothing
        (3, 1, 0.3),  # one trial, almost all padding
        (54, 1000, 0.3),  # dense: nearly every (op, word) is a site
    ],
)
def test_sites_and_plane_match_reference(ops, trials, probability):
    n_words = words_for(trials)
    for seed in range(5):
        rng = np.random.default_rng(seed)
        virtual = _bernoulli_positions(rng, probability, ops * n_words * 64)
        if virtual.size == 0:
            continue
        segments, _, _, _ = assert_matches_reference(virtual, n_words, trials, ops)
        if ops > _PLANE_BLOCK_OPS:
            # The OR-reduce crossed a block.
            assert segments[-1] // n_words >= _PLANE_BLOCK_OPS


def test_padding_only_segment_keeps_its_site():
    trials, n_words = 70, 2  # word 1 holds trials 64..69, then padding
    padded = n_words * 64
    virtual = np.array(
        [
            0 * padded + 3,  # op 0, word 0
            0 * padded + 100,  # op 0, word 1: padding only
            1 * padded + 65,  # op 1, word 1: a real trial ...
            1 * padded + 127,  # ... and a padding bit
            70 * padded + 120,  # op 70, past the first op block: padding only
        ],
        dtype=np.int64,
    )
    segments, bounds, select, fault_plane = assert_matches_reference(
        virtual, n_words, trials, 71
    )
    np.testing.assert_array_equal(segments, [0, 1, 3, 141])
    np.testing.assert_array_equal(bounds[[0, 1, 2, 70, 71]], [0, 2, 3, 3, 4])
    np.testing.assert_array_equal(select, np.array([1 << 3, 0, 1 << 1, 0], dtype=np.uint64))
    np.testing.assert_array_equal(fault_plane, np.array([1 << 3, 1 << 1], dtype=np.uint64))


def test_op_without_faults_between_faulted_ops():
    # Op 1 draws nothing: its site range is empty, and the ops around
    # it keep their own sites.
    trials, n_words = 128, 2
    padded = n_words * 64
    virtual = np.array(
        [0 * padded + 5, 0 * padded + 70, 2 * padded + 1, 2 * padded + 9],
        dtype=np.int64,
    )
    _, bounds, select, _ = assert_matches_reference(virtual, n_words, trials, 4)
    np.testing.assert_array_equal(bounds, [0, 2, 2, 3, 3])
    np.testing.assert_array_equal(
        select, np.array([1 << 5, 1 << 6, (1 << 1) | (1 << 9)], dtype=np.uint64)
    )


def test_padded_last_word_hit_in_several_ops():
    # 100 trials: word 1 holds trials 64..99, then 28 padding bits.
    # Several ops fault that word, each with real and padding bits, and
    # only the real bits survive in each op's last segment.
    trials, n_words = 100, 2
    padded = n_words * 64
    virtual = np.array(
        [
            0 * padded + 64 + 2,
            0 * padded + 64 + 40,  # padding
            1 * padded + 7,  # op 1 faults word 0 only
            3 * padded + 3,
            3 * padded + 64 + 35,
            3 * padded + 64 + 63,  # padding
            4 * padded + 64 + 36,  # padding only
        ],
        dtype=np.int64,
    )
    _, bounds, select, fault_plane = assert_matches_reference(
        virtual, n_words, trials, 5
    )
    np.testing.assert_array_equal(bounds, [0, 1, 2, 2, 4, 5])
    np.testing.assert_array_equal(
        select,
        np.array([1 << 2, 1 << 7, 1 << 3, 1 << 35, 0], dtype=np.uint64),
    )
    np.testing.assert_array_equal(
        fault_plane,
        np.array([(1 << 7) | (1 << 3), (1 << 2) | (1 << 35)], dtype=np.uint64),
    )


def test_padding_only_sites_draw_replacement_words():
    # 65 trials: each op's second word has one real trial and 63 padding
    # bits, so many faulted (op, word) pairs hold padding alone.  Each
    # still gets a site and ``arity`` replacement words in the block.
    circuit = Circuit(3)
    for _ in range(20):
        circuit.maj(0, 1, 2).cnot(0, 1)
    circuit.append_reset(2)
    compiled = compile_circuit(circuit)
    plan = _stack_plan(compiled)
    trials = 65
    n_words = words_for(trials)
    points, faulted = _draw_phase(
        compiled, plan, [NoiseModel(gate_error=0.05)], [trials],
        [np.random.default_rng(4)], [0], n_words, keep_positions=True,
    )
    point = points[0]
    _, select, block, _ = point.sites
    assert (select == 0).any()
    # One site per distinct faulted (op, word), padding-only ones too.
    ops = np.unique(point.positions >> 6) // n_words
    arity_of_op = np.zeros(plan.op_wires.shape[1], dtype=np.int64)
    for (start, stop), arity in zip(plan.run_ops.T, plan.run_arity):
        arity_of_op[start:stop] = arity
    assert select.size == ops.size
    assert block.size == int(arity_of_op[ops].sum())
    assert faulted[0] <= trials
