"""Statistics for Monte-Carlo failure-rate estimation."""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

from repro.errors import AnalysisError


def wilson_interval(
    successes: int, trials: int, z: float = 1.96
) -> tuple[float, float]:
    """Wilson score confidence interval for a binomial proportion.

    Behaves sensibly at 0 and ``trials`` successes, unlike the normal
    approximation, which matters for the very low logical error rates
    this library estimates.  ``z`` must be non-negative (a negative one
    would swap the endpoints).
    """
    if z < 0:
        raise AnalysisError(f"z must be >= 0, got {z}")
    if trials <= 0:
        raise AnalysisError(f"trials must be positive, got {trials}")
    if not 0 <= successes <= trials:
        raise AnalysisError(
            f"successes ({successes}) must be within [0, trials={trials}]"
        )
    p_hat = successes / trials
    denominator = 1.0 + z**2 / trials
    centre = (p_hat + z**2 / (2 * trials)) / denominator
    margin = (
        z
        * sqrt(p_hat * (1.0 - p_hat) / trials + z**2 / (4.0 * trials**2))
        / denominator
    )
    # At the boundaries the analytic endpoints are exactly 0 and 1;
    # computing them through the general formula leaves float dust.
    lower = 0.0 if successes == 0 else max(0.0, centre - margin)
    upper = 1.0 if successes == trials else min(1.0, centre + margin)
    return (lower, upper)


@dataclass(frozen=True)
class RateEstimate:
    """A failure-rate estimate with its Wilson interval.

    Construction validates the counts (consistent with
    :func:`wilson_interval`), so a zero-trial or out-of-range estimate
    fails loudly as an :class:`~repro.errors.AnalysisError` instead of
    surfacing later as a bare ``ZeroDivisionError`` from :attr:`rate`.
    """

    failures: int
    trials: int
    z: float = 1.96

    def __post_init__(self) -> None:
        if self.trials <= 0:
            raise AnalysisError(f"trials must be positive, got {self.trials}")
        if not 0 <= self.failures <= self.trials:
            raise AnalysisError(
                f"failures ({self.failures}) must be within "
                f"[0, trials={self.trials}]"
            )

    @property
    def rate(self) -> float:
        """The point estimate."""
        return self.failures / self.trials

    @property
    def interval(self) -> tuple[float, float]:
        """The Wilson confidence interval."""
        return wilson_interval(self.failures, self.trials, self.z)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        low, high = self.interval
        return f"{self.rate:.3g} [{low:.3g}, {high:.3g}] ({self.trials} trials)"

