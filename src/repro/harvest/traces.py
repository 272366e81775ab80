"""The :class:`PowerTrace` container.

A power trace is a uniformly sampled sequence of instantaneous power
values (watts).  The published NVP simulation methodology samples
harvested power every 0.1 ms; that is the default tick everywhere in
this framework.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

DEFAULT_DT_S = 1e-4  # 0.1 ms, the published trace-sampling period.


class PowerTrace:
    """A uniformly sampled power-versus-time series.

    Attributes:
        samples_w: instantaneous power per tick, watts (non-negative).
        dt_s: sampling period, seconds.
        source: free-form label of the generating source.
    """

    def __init__(
        self, samples_w, dt_s: float = DEFAULT_DT_S, source: str = "unknown"
    ) -> None:
        # The whole fast path (vectorized rectification, cumulative
        # harvest pre-pass, bulk charging) assumes a contiguous float64
        # array; guarantee it here once instead of casting per tick.
        samples = np.ascontiguousarray(samples_w, dtype=np.float64)
        if samples.ndim != 1:
            raise ValueError("power trace must be one-dimensional")
        if len(samples) == 0:
            raise ValueError("power trace cannot be empty")
        # Written so NaN fails too: every comparison with NaN is False.
        if not 0 < dt_s < math.inf:
            raise ValueError("sampling period must be positive and finite")
        if not np.isfinite(samples).all():
            raise ValueError("power samples must be finite")
        if np.any(samples < 0):
            raise ValueError("power samples cannot be negative")
        self.samples_w = samples
        self.dt_s = float(dt_s)
        self.source = source

    # -- basic properties ------------------------------------------------

    def __len__(self) -> int:
        return len(self.samples_w)

    def __iter__(self) -> Iterator[float]:
        return iter(self.samples_w)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PowerTrace):
            return NotImplemented
        return (
            self.dt_s == other.dt_s
            and self.source == other.source
            and np.array_equal(self.samples_w, other.samples_w)
        )

    @property
    def duration_s(self) -> float:
        """Total trace duration in seconds."""
        return len(self.samples_w) * self.dt_s

    @property
    def mean_power_w(self) -> float:
        """Mean power over the trace."""
        return float(self.samples_w.mean())

    @property
    def peak_power_w(self) -> float:
        """Maximum instantaneous power."""
        return float(self.samples_w.max())

    @property
    def total_energy_j(self) -> float:
        """Total harvested energy over the trace."""
        return float(self.samples_w.sum() * self.dt_s)

    def power_at(self, t_s: float) -> float:
        """Instantaneous power at time ``t_s`` (zero-order hold).

        Raises:
            ValueError: if ``t_s`` is outside the trace.
        """
        if t_s < 0 or t_s >= self.duration_s:
            raise ValueError(f"t={t_s} outside trace of {self.duration_s}s")
        return float(self.samples_w[int(t_s / self.dt_s)])

    # -- transformations ---------------------------------------------------

    def scaled_to_mean(self, mean_power_w: float) -> "PowerTrace":
        """Return a copy rescaled to the requested mean power."""
        if mean_power_w < 0:
            raise ValueError("mean power cannot be negative")
        current = self.mean_power_w
        if current == 0:
            raise ValueError("cannot rescale an all-zero trace to a nonzero mean")
        return PowerTrace(
            self.samples_w * (mean_power_w / current), self.dt_s, self.source
        )

    def clipped(self, max_power_w: float) -> "PowerTrace":
        """Return a copy with power clipped to ``max_power_w``."""
        if max_power_w < 0:
            raise ValueError("clip level cannot be negative")
        return PowerTrace(
            np.minimum(self.samples_w, max_power_w), self.dt_s, self.source
        )

    def slice(self, start_s: float, stop_s: float) -> "PowerTrace":
        """Return the sub-trace covering ``[start_s, stop_s)``."""
        if not 0 <= start_s < stop_s <= self.duration_s + 1e-12:
            raise ValueError("invalid slice bounds")
        i0 = int(round(start_s / self.dt_s))
        i1 = int(round(stop_s / self.dt_s))
        return PowerTrace(self.samples_w[i0:i1].copy(), self.dt_s, self.source)

    def offset_ticks(self, offset_s: float) -> int:
        """Tick index of a time offset (round to nearest sample).

        The fleet engine staggers devices along one shared trace by
        starting each at its own offset; this is the one conversion
        both the batched kernel and the single-device replay path use,
        so a device's sub-trace is defined identically everywhere.

        Raises:
            ValueError: offset is negative or at/past the trace end.
        """
        if offset_s < 0:
            raise ValueError("trace offset cannot be negative")
        index = int(round(offset_s / self.dt_s))
        if index >= len(self.samples_w):
            raise ValueError(
                f"trace offset {offset_s}s is at/past the trace end "
                f"({self.duration_s}s)"
            )
        return index

    def tail(self, offset_s: float) -> "PowerTrace":
        """The sub-trace from ``offset_s`` to the end of the trace."""
        index = self.offset_ticks(offset_s)
        return PowerTrace(
            self.samples_w[index:].copy(), self.dt_s, self.source
        )

    def repeated(self, times: int) -> "PowerTrace":
        """Return the trace tiled ``times`` times."""
        if times < 1:
            raise ValueError("repeat count must be at least 1")
        return PowerTrace(np.tile(self.samples_w, times), self.dt_s, self.source)

    def resampled(self, dt_s: float) -> "PowerTrace":
        """Return a copy resampled to a new period (linear interpolation)."""
        if dt_s <= 0:
            raise ValueError("sampling period must be positive")
        old_t = np.arange(len(self.samples_w)) * self.dt_s
        n_new = max(1, int(round(self.duration_s / dt_s)))
        new_t = np.arange(n_new) * dt_s
        samples = np.interp(new_t, old_t, self.samples_w)
        return PowerTrace(samples, dt_s, self.source)

    # -- persistence ---------------------------------------------------------

    def save(self, path: str) -> None:
        """Save to an ``.npz`` file."""
        np.savez_compressed(
            path, samples_w=self.samples_w, dt_s=self.dt_s, source=self.source
        )

    @classmethod
    def load(cls, path: str) -> "PowerTrace":
        """Load a trace saved with :meth:`save`."""
        data = np.load(path, allow_pickle=False)
        return cls(data["samples_w"], float(data["dt_s"]), str(data["source"]))

    def __repr__(self) -> str:
        return (
            f"PowerTrace(source={self.source!r}, n={len(self)}, "
            f"dt={self.dt_s * 1e3:.3g}ms, mean={self.mean_power_w * 1e6:.3g}uW, "
            f"peak={self.peak_power_w * 1e6:.3g}uW)"
        )
