"""Statistics used throughout the reproduction.

The paper reports each measurement as mean, standard deviation, min, max and
a 90 % Student-t confidence interval over eight samples (Tables 1-4).
:class:`SampleSet` produces exactly those columns.  :class:`OnlineStats` is a
streaming (Welford) accumulator for within-run measurements, and
:class:`UtilizationMonitor` tracks busy time of a device so we can verify
claims like "the disks were 50 % utilized on the average".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

__all__ = [
    "OnlineStats",
    "SampleSet",
    "ConfidenceInterval",
    "UtilizationMonitor",
    "student_t_critical",
]

# Two-sided Student-t critical values, indexed by degrees of freedom.
# Column keys are the confidence levels used in this project.
_T_TABLE = {
    0.90: [
        None, 6.314, 2.920, 2.353, 2.132, 2.015, 1.943, 1.895, 1.860, 1.833,
        1.812, 1.796, 1.782, 1.771, 1.761, 1.753, 1.746, 1.740, 1.734, 1.729,
        1.725, 1.721, 1.717, 1.714, 1.711, 1.708, 1.706, 1.703, 1.701, 1.699,
        1.697,
    ],
    0.95: [
        None, 12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262,
        2.228, 2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093,
        2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045,
        2.042,
    ],
    0.99: [
        None, 63.657, 9.925, 5.841, 4.604, 4.032, 3.707, 3.499, 3.355, 3.250,
        3.169, 3.106, 3.055, 3.012, 2.977, 2.947, 2.921, 2.898, 2.878, 2.861,
        2.845, 2.831, 2.819, 2.807, 2.797, 2.787, 2.779, 2.771, 2.763, 2.756,
        2.750,
    ],
}
_T_ASYMPTOTIC = {0.90: 1.645, 0.95: 1.960, 0.99: 2.576}


def student_t_critical(degrees_of_freedom: int, confidence: float = 0.90) -> float:
    """Two-sided Student-t critical value.

    Supports the confidence levels the project reports (0.90, 0.95, 0.99);
    beyond 30 degrees of freedom the normal approximation is used.
    """
    if degrees_of_freedom < 1:
        raise ValueError("need at least 2 samples for a confidence interval")
    try:
        column = _T_TABLE[confidence]
    except KeyError:
        raise ValueError(
            f"unsupported confidence level {confidence}; "
            f"use one of {sorted(_T_TABLE)}"
        ) from None
    if degrees_of_freedom < len(column):
        return column[degrees_of_freedom]
    return _T_ASYMPTOTIC[confidence]


@dataclass(frozen=True)
class ConfidenceInterval:
    """A two-sided confidence interval [low, high] at ``confidence``."""

    low: float
    high: float
    confidence: float

    def contains(self, value: float) -> bool:
        """True if ``value`` lies inside the interval."""
        return self.low <= value <= self.high

    @property
    def width(self) -> float:
        """High minus low."""
        return self.high - self.low


class OnlineStats:
    """Streaming mean/variance/min/max via Welford's algorithm."""

    def __init__(self):
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._min = math.inf
        self._max = -math.inf
        #: Called with this accumulator before every :meth:`add` — the
        #: happens-before race detector (:mod:`repro.check.hb`) attaches
        #: here to see which process segment folds each observation in.
        self.observer = None

    def reset(self) -> None:
        """Drop every observation (back to the freshly built state).

        Lets one accumulator be reused across engine runs without state
        bleeding from the previous scenario into the next — the runtime
        sanitizer relies on this to run a scenario twice and diff.
        """
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._min = math.inf
        self._max = -math.inf

    def add(self, value: float) -> None:
        """Fold one observation into the accumulator."""
        if self.observer is not None:
            self.observer(self)
        self.count += 1
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value

    def extend(self, values: Iterable[float]) -> None:
        """Fold many observations."""
        for value in values:
            self.add(value)

    @property
    def mean(self) -> float:
        """Sample mean (0.0 when empty)."""
        return self._mean if self.count else 0.0

    @property
    def variance(self) -> float:
        """Unbiased sample variance (needs >= 2 observations)."""
        if self.count < 2:
            return 0.0
        return self._m2 / (self.count - 1)

    @property
    def stdev(self) -> float:
        """Unbiased sample standard deviation."""
        return math.sqrt(self.variance)

    @property
    def minimum(self) -> float:
        if not self.count:
            raise ValueError("no observations")
        return self._min

    @property
    def maximum(self) -> float:
        if not self.count:
            raise ValueError("no observations")
        return self._max

    def confidence_interval(self, confidence: float = 0.90) -> ConfidenceInterval:
        """Student-t confidence interval around the mean."""
        if self.count < 2:
            raise ValueError("need at least 2 observations")
        t_value = student_t_critical(self.count - 1, confidence)
        half_width = t_value * self.stdev / math.sqrt(self.count)
        return ConfidenceInterval(
            self.mean - half_width, self.mean + half_width, confidence
        )


class SampleSet:
    """A batch of repeated-run samples, reported the way the paper reports.

    Tables 1-4 give x̄, σ, min, max and the 90 % confidence interval over
    eight samples; :meth:`row` produces that tuple.
    """

    def __init__(self, samples: Sequence[float] = ()):
        self._stats = OnlineStats()
        self.samples: list[float] = []
        for sample in samples:
            self.add(sample)

    def add(self, sample: float) -> None:
        """Record one run's measurement."""
        self.samples.append(sample)
        self._stats.add(sample)

    def reset(self) -> None:
        """Drop every recorded sample."""
        self.samples.clear()
        self._stats.reset()

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def mean(self) -> float:
        return self._stats.mean

    @property
    def stdev(self) -> float:
        return self._stats.stdev

    @property
    def minimum(self) -> float:
        return self._stats.minimum

    @property
    def maximum(self) -> float:
        return self._stats.maximum

    def confidence_interval(self, confidence: float = 0.90) -> ConfidenceInterval:
        return self._stats.confidence_interval(confidence)

    def row(self, confidence: float = 0.90) -> dict[str, float]:
        """The paper's table columns for this sample set."""
        interval = self.confidence_interval(confidence)
        return {
            "mean": self.mean,
            "stdev": self.stdev,
            "min": self.minimum,
            "max": self.maximum,
            "ci_low": interval.low,
            "ci_high": interval.high,
        }


class UtilizationMonitor:
    """Tracks the busy fraction of a device over simulated time."""

    def __init__(self, env):
        self.env = env
        self._busy_since: float | None = None
        self._busy_total = 0.0
        self._started_at = env.now

    def reset(self) -> None:
        """Restart the measurement window at the current simulated time.

        An open busy interval survives the reset (the device is still
        busy) but its time before the reset is discarded.
        """
        self._busy_total = 0.0
        self._started_at = self.env.now
        if self._busy_since is not None:
            self._busy_since = self.env.now

    def busy(self, at: float) -> None:
        """Mark the device busy from ``at`` (idempotent).

        Callers pass the current time they already hold; a time earlier
        than now records a mark that was computed rather than simulated
        (the folded background bursts of
        :class:`~repro.simnet.ethernet.BackgroundLoad`).
        """
        if self._busy_since is None:
            self._busy_since = at

    def idle(self, at: float) -> None:
        """Mark the device idle from ``at`` (idempotent)."""
        if self._busy_since is not None:
            self._busy_total += at - self._busy_since
            self._busy_since = None

    @property
    def busy_time(self) -> float:
        """Total busy seconds so far (including an open busy interval)."""
        total = self._busy_total
        if self._busy_since is not None:
            total += self.env.now - self._busy_since
        return total

    def utilization(self) -> float:
        """Busy fraction since the monitor was created."""
        elapsed = self.env.now - self._started_at
        if elapsed <= 0:
            return 0.0
        return self.busy_time / elapsed
