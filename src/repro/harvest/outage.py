"""Power-outage analytics.

A *power emergency* begins when instantaneous harvested power falls
below the processor's operating threshold and ends when it recovers.
NVP papers characterise harvesting environments by the count and
duration distribution of these emergencies (e.g. 1000–2000 emergencies
in a 10 s wristwatch window at a 33 µW threshold).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.harvest.traces import PowerTrace

#: Operating threshold used throughout the published methodology.
DEFAULT_THRESHOLD_W = 33e-6


@dataclass(frozen=True)
class OutageStats:
    """Summary of sub-threshold intervals in a trace.

    Attributes:
        threshold_w: the power threshold used.
        count: number of distinct outages.
        durations_s: duration of each outage, in order of occurrence.
        total_below_s: total time below threshold.
        duty_cycle: fraction of time at or above threshold.
    """

    threshold_w: float
    count: int
    durations_s: Tuple[float, ...]
    total_below_s: float
    duty_cycle: float

    @property
    def mean_duration_s(self) -> float:
        """Mean outage duration (0 if there were no outages)."""
        if not self.durations_s:
            return 0.0
        return float(np.mean(self.durations_s))

    @property
    def max_duration_s(self) -> float:
        """Longest outage (0 if there were no outages)."""
        if not self.durations_s:
            return 0.0
        return float(max(self.durations_s))

    def emergencies_per_second(self, trace_duration_s: float) -> float:
        """Outage onset rate."""
        if trace_duration_s <= 0:
            raise ValueError("trace duration must be positive")
        return self.count / trace_duration_s

    def histogram(self, bins: int = 20) -> Tuple[np.ndarray, np.ndarray]:
        """Histogram of outage durations: ``(counts, bin_edges)``."""
        if bins < 1:
            raise ValueError("need at least one bin")
        if not self.durations_s:
            return np.zeros(bins, dtype=int), np.linspace(0.0, 1.0, bins + 1)
        counts, edges = np.histogram(self.durations_s, bins=bins)
        return counts, edges


def outage_intervals(
    trace: PowerTrace, threshold_w: float = DEFAULT_THRESHOLD_W
) -> List[Tuple[int, int]]:
    """Return ``(start_tick, end_tick)`` half-open intervals below threshold."""
    if threshold_w < 0:
        raise ValueError("threshold cannot be negative")
    below = trace.samples_w < threshold_w
    if not below.any():
        return []
    edges = np.diff(below.astype(np.int8))
    starts = list(np.flatnonzero(edges == 1) + 1)
    ends = list(np.flatnonzero(edges == -1) + 1)
    if below[0]:
        starts.insert(0, 0)
    if below[-1]:
        ends.append(len(trace))
    return list(zip(starts, ends))


def analyze_outages(
    trace: PowerTrace, threshold_w: float = DEFAULT_THRESHOLD_W
) -> OutageStats:
    """Compute :class:`OutageStats` for a trace at a threshold."""
    intervals = outage_intervals(trace, threshold_w)
    durations = tuple((end - start) * trace.dt_s for start, end in intervals)
    total_below = float(sum(durations))
    duty = 1.0 - total_below / trace.duration_s
    return OutageStats(
        threshold_w=threshold_w,
        count=len(intervals),
        durations_s=durations,
        total_below_s=total_below,
        duty_cycle=duty,
    )
