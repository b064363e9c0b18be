"""The two Bernoulli position samplers: contract and agreement.

``_bernoulli_positions`` has a sparse regime (geometric gap jumping)
and a dense regime (direct thresholded uniforms) behind one contract:
sorted, duplicate-free int64 indices in ``[0, trials)``.  Both regimes
are exercised explicitly via the ``dense`` override, and a two-sided
statistical test checks they draw from the same fault-count
distribution (mean AND variance — a z-test on the pooled success count
plus a variance-ratio bound across repetitions).

The sparse regime inverts standard exponentials instead of calling
``Generator.geometric``; :func:`geometric_reference` keeps the
``geometric`` loop, and the stream tests require the same positions
AND the same generator state after the draw.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.noise.monte_carlo import DENSE_PROBABILITY, _bernoulli_positions


@pytest.mark.parametrize("dense", [False, True])
class TestContract:
    def test_sorted_unique_in_range(self, dense):
        rng = np.random.default_rng(3)
        for probability in (0.001, 0.01, 0.05, 0.3):
            positions = _bernoulli_positions(rng, probability, 5000, dense=dense)
            assert positions.dtype == np.int64
            assert (np.diff(positions) > 0).all()  # sorted, no duplicates
            if positions.size:
                assert 0 <= positions[0] and positions[-1] < 5000

    def test_edge_cases(self, dense):
        rng = np.random.default_rng(4)
        assert _bernoulli_positions(rng, 0.5, 0, dense=dense).size == 0
        assert _bernoulli_positions(rng, 0.0, 100, dense=dense).size == 0
        assert _bernoulli_positions(rng, -1.0, 100, dense=dense).size == 0
        np.testing.assert_array_equal(
            _bernoulli_positions(rng, 1.0, 5, dense=dense),
            np.arange(5, dtype=np.int64),
        )

    def test_rate_matches_probability(self, dense):
        rng = np.random.default_rng(5)
        positions = _bernoulli_positions(rng, 0.05, 200_000, dense=dense)
        assert positions.size == pytest.approx(0.05 * 200_000, rel=0.05)


class TestRegimeSelection:
    def test_threshold_switches_regime_stream(self):
        # At p >= DENSE_PROBABILITY the default draw must consume the
        # generator exactly like an explicit dense draw; below, like an
        # explicit sparse draw.
        for probability, dense in ((0.3, True), (0.05, False)):
            auto = _bernoulli_positions(
                np.random.default_rng(6), probability, 4000
            )
            forced = _bernoulli_positions(
                np.random.default_rng(6), probability, 4000, dense=dense
            )
            np.testing.assert_array_equal(auto, forced)

    def test_threshold_value(self):
        # One inverted-exponential gap costs about 10 ns per *success*
        # and one uniform about 3.7 ns per *trial*, so gap jumping
        # would win up to p near 0.35.  The switch stays at 0.25
        # because the regime a given p draws in is part of the stream
        # contract; every frozen digest and threshold experiment draws
        # well below it.
        assert DENSE_PROBABILITY == 0.25


class TestDistributionAgreement:
    def test_two_sided_mean_and_variance(self):
        # 400 repetitions of 2000 draws per regime at p = 0.05.  The
        # pooled success counts are Binomial(n_total, p); a two-sided
        # two-proportion z-test must not separate the regimes, and the
        # per-repetition count variance must match Binomial variance
        # within generous (but two-sided) bounds for BOTH regimes.
        probability, trials, reps = 0.05, 2000, 400
        counts = {}
        for dense in (False, True):
            rng = np.random.default_rng(12345)
            counts[dense] = np.array(
                [
                    _bernoulli_positions(rng, probability, trials, dense=dense).size
                    for _ in range(reps)
                ]
            )
        n_total = trials * reps
        p_pool = (counts[False].sum() + counts[True].sum()) / (2 * n_total)
        z = (counts[True].sum() - counts[False].sum()) / np.sqrt(
            2 * n_total * p_pool * (1 - p_pool)
        )
        assert abs(z) < 4.0, f"regimes separated: z = {z:.2f}"
        expected_var = trials * probability * (1 - probability)
        for dense, sample in counts.items():
            ratio = sample.var(ddof=1) / expected_var
            assert 0.7 < ratio < 1.4, (
                f"dense={dense}: count variance off Binomial by {ratio:.2f}x"
            )

    def test_sparse_regime_still_default_below_threshold(self):
        # The frozen engine digests rely on the sparse stream at the
        # reference g = 0.01; the default regime there must stay sparse.
        sparse = _bernoulli_positions(np.random.default_rng(7), 0.01, 1000)
        dense = _bernoulli_positions(
            np.random.default_rng(7), 0.01, 1000, dense=True
        )
        assert not np.array_equal(sparse, dense)


def geometric_reference(rng, probability, trials):
    """The sparse sampler as it drew with ``Generator.geometric`` gaps."""
    expected = trials * probability
    batch = int(expected + 4.0 * expected**0.5 + 16.0)
    chunks = []
    last = -1
    while True:
        positions = last + np.cumsum(rng.geometric(probability, size=batch))
        if positions[-1] >= trials:
            chunks.append(positions[positions < trials])
            break
        chunks.append(positions)
        last = int(positions[-1])
    return np.concatenate(chunks)


class ShortGaps:
    """A generator shim whose gaps are an eighth of the nominal ones.

    It serves both samplers the same gap sequence, so eight times more
    successes than the batch is sized for force the multi-batch loop.
    """

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.batches = 0

    def standard_exponential(self, size):
        self.batches += 1
        return self.rng.standard_exponential(size) / 8.0

    def geometric(self, probability, size):
        gaps = self.standard_exponential(size) / -math.log1p(-probability)
        return np.ceil(gaps).astype(np.int64)


class TestGeometricStream:
    PROBABILITIES = (
        1e-6, 1e-5, 1e-4, 1e-3, 0.01, 0.0386, 0.1, 0.2,
        float(np.nextafter(DENSE_PROBABILITY, 0.0)),
    )
    TRIALS = (1, 2, 63, 64, 257, 5000, 200_000)

    @pytest.mark.parametrize("probability", PROBABILITIES)
    def test_same_positions_and_generator_state(self, probability):
        for seed in range(50):
            for trials in self.TRIALS:
                drawn = np.random.default_rng(seed)
                reference = np.random.default_rng(seed)
                positions = _bernoulli_positions(drawn, probability, trials)
                np.testing.assert_array_equal(
                    positions,
                    geometric_reference(reference, probability, trials),
                )
                assert positions.dtype == np.int64
                assert drawn.bit_generator.state == reference.bit_generator.state

    @pytest.mark.parametrize("probability", [1e-6, 1e-5])
    def test_long_axes_at_small_rates(self, probability):
        # Gaps near 1e6 make ``ceil`` sensitive to the last bits of the
        # inversion's scale, so thousands of them pin it to NumPy's.
        for seed in range(50):
            drawn = np.random.default_rng(seed)
            reference = np.random.default_rng(seed)
            np.testing.assert_array_equal(
                _bernoulli_positions(drawn, probability, 10**9),
                geometric_reference(reference, probability, 10**9),
            )
            assert drawn.bit_generator.state == reference.bit_generator.state

    def test_consecutive_draws_share_one_stream(self):
        # The kernel draws the gate class, then the reset class, from
        # one generator: the second draw must start where the geometric
        # loop would have left the generator.
        drawn = np.random.default_rng(8)
        reference = np.random.default_rng(8)
        for probability, trials in ((0.04, 54 * 6400), (0.001, 300), (0.2, 70)):
            np.testing.assert_array_equal(
                _bernoulli_positions(drawn, probability, trials),
                geometric_reference(reference, probability, trials),
            )
        assert drawn.bit_generator.state == reference.bit_generator.state

    @pytest.mark.parametrize("probability", [1e-3, 0.05, 0.2])
    def test_multi_batch_loop_matches(self, probability):
        for seed in range(10):
            for expected in (100, 2000):
                trials = int(expected / probability)
                shim = ShortGaps(seed)
                positions = _bernoulli_positions(shim, probability, trials)
                np.testing.assert_array_equal(
                    positions,
                    geometric_reference(ShortGaps(seed), probability, trials),
                )
                assert shim.batches > 1


TINY_RATE_CHILD = """
import numpy as np
from repro.noise.monte_carlo import _bernoulli_positions

for probability in (1e-18, 1e-300, 5e-324):
    rng = np.random.default_rng(11)
    positions = _bernoulli_positions(rng, probability, 1000)
    assert positions.size == 0 and positions.dtype == np.int64, positions
    one_batch = np.random.default_rng(11)
    one_batch.standard_exponential(16)
    assert rng.bit_generator.state == one_batch.bit_generator.state
"""


def test_tiny_rates_draw_nothing_after_one_batch():
    # Regression: an INT64_MAX geometric gap overflowed the running sum
    # into negative positions (p = 1e-18) or never ended the loop while
    # memory grew (p = 1e-300).  Gaps are now clamped, so the first
    # batch of 16 gaps ends every draw.  The draws run in a child
    # process with a deadline, so a regression fails instead of hanging.
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
    child = subprocess.run(
        [sys.executable, "-c", TINY_RATE_CHILD],
        env=env,
        capture_output=True,
        text=True,
        timeout=20,
    )
    assert child.returncode == 0, child.stderr
