"""Stochastic power-trace generators per harvesting-source class.

Each generator synthesises a :class:`~repro.harvest.traces.PowerTrace`
whose statistics match the published envelopes for that source class:

* **wristwatch** (kinetic/piezo, unbalanced-ring rotational harvester):
  10–40 µW average, instantaneous swings between ~0 and ~2000 µW, and
  on the order of a thousand sub-threshold emergencies per 10 s.
* **solar** (indoor/ambient): smoother, with occlusion dips.
* **rf** (WiFi/TV RF): packet-like on/off bursts.
* **thermal** (body heat): low but nearly constant.
* **constant** / **square**: deterministic references for tests.

All generators are deterministic given a seed.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from repro import native
from repro.harvest.traces import DEFAULT_DT_S, PowerTrace

RngLike = Union[int, np.random.Generator, None]


def _rng(seed: RngLike) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _n_samples(duration_s: float, dt_s: float) -> int:
    if duration_s <= 0:
        raise ValueError("duration must be positive")
    if dt_s <= 0:
        raise ValueError("sampling period must be positive")
    n = int(round(duration_s / dt_s))
    if n < 1:
        raise ValueError("duration shorter than one sample")
    return n


def _ou_process(
    n: int,
    dt_s: float,
    tau_s: float,
    sigma: float,
    rng: np.random.Generator,
    x0: float = 0.0,
) -> np.ndarray:
    """Ornstein–Uhlenbeck process with unit mean-reversion target 0.

    The recurrence runs in place on the scaled normal steps, in the
    native ``ou_walk`` kernel (:func:`repro.native.kernels`): the same
    multiply-then-add, bit for bit, on either backend.
    """
    alpha = float(np.exp(-dt_s / tau_s))
    noise_scale = sigma * float(np.sqrt(1.0 - alpha * alpha))
    steps = rng.standard_normal(n) * noise_scale
    native.kernels().ou_walk(steps, alpha, x0)
    return steps


def constant_trace(
    power_w: float, duration_s: float, dt_s: float = DEFAULT_DT_S
) -> PowerTrace:
    """A perfectly stable supply (the oracle reference)."""
    if power_w < 0:
        raise ValueError("power cannot be negative")
    n = _n_samples(duration_s, dt_s)
    return PowerTrace(np.full(n, power_w), dt_s, source="constant")


def square_trace(
    high_w: float,
    low_w: float,
    period_s: float,
    duty: float,
    duration_s: float,
    dt_s: float = DEFAULT_DT_S,
) -> PowerTrace:
    """Deterministic on/off supply (used heavily in unit tests)."""
    if not 0.0 <= duty <= 1.0:
        raise ValueError("duty must be in [0, 1]")
    if period_s <= 0:
        raise ValueError("period must be positive")
    if high_w < 0 or low_w < 0:
        raise ValueError("power levels cannot be negative")
    n = _n_samples(duration_s, dt_s)
    t = np.arange(n) * dt_s
    phase = np.mod(t, period_s) / period_s
    samples = np.where(phase < duty, high_w, low_w)
    return PowerTrace(samples, dt_s, source="square")


def wristwatch_trace(
    duration_s: float,
    dt_s: float = DEFAULT_DT_S,
    mean_power_w: float = 25e-6,
    peak_power_w: float = 2000e-6,
    seed: RngLike = None,
) -> PowerTrace:
    """Kinetic wrist-worn harvester: bursty, heavy-tailed, gated by motion.

    The model is a log-space OU process with a ~2 ms correlation time
    (the rectified ring oscillation), multiplied by a two-state motion
    gate (bouts of activity alternating with near-still periods), then
    rescaled to the requested mean and clipped at the requested peak.
    """
    rng = _rng(seed)
    n = _n_samples(duration_s, dt_s)
    # Fast log-normal fluctuation around the motion envelope.  The 4 ms
    # correlation time reproduces the published emergency rate
    # (1000-2000 sub-33uW emergencies per 10 s window).
    log_fluct = _ou_process(n, dt_s, tau_s=4e-3, sigma=1.4, rng=rng)
    # Motion gate: exponential bout/pause durations.
    gate = np.empty(n)
    i = 0
    active = True
    while i < n:
        mean_len_s = 0.8 if active else 0.35
        length = max(1, int(rng.exponential(mean_len_s) / dt_s))
        level = 1.0 if active else 0.02
        gate[i : i + length] = level
        i += length
        active = not active
    base = np.exp(log_fluct) * gate
    trace = PowerTrace(base, dt_s, source="wristwatch")
    trace = trace.scaled_to_mean(mean_power_w).clipped(peak_power_w)
    # Clipping reduces the mean slightly; one corrective rescale keeps the
    # requested average while preserving the clipped shape.
    trace = trace.scaled_to_mean(mean_power_w).clipped(peak_power_w)
    trace.source = "wristwatch"
    return trace


def solar_trace(
    duration_s: float,
    dt_s: float = DEFAULT_DT_S,
    mean_power_w: float = 200e-6,
    seed: RngLike = None,
) -> PowerTrace:
    """Ambient-light harvester: smooth with occasional occlusion dips."""
    rng = _rng(seed)
    n = _n_samples(duration_s, dt_s)
    envelope = 1.0 + 0.25 * _ou_process(n, dt_s, tau_s=0.5, sigma=0.6, rng=rng)
    envelope = np.clip(envelope, 0.0, None)
    # Occlusions: Poisson events dropping power to ~10% for 0.1–1 s.
    occlusion = np.ones(n)
    t = 0.0
    while True:
        t += rng.exponential(3.0)
        if t >= duration_s:
            break
        start = int(t / dt_s)
        length = max(1, int(rng.uniform(0.1, 1.0) / dt_s))
        occlusion[start : start + length] = 0.1
    samples = envelope * occlusion
    trace = PowerTrace(samples, dt_s, source="solar")
    return trace.scaled_to_mean(mean_power_w)


def rf_trace(
    duration_s: float,
    dt_s: float = DEFAULT_DT_S,
    mean_power_w: float = 50e-6,
    duty: float = 0.2,
    burst_s: float = 3e-3,
    seed: RngLike = None,
) -> PowerTrace:
    """RF (WiFi/TV) harvester: packet-like on/off bursts.

    ``burst_s`` is the mean on-burst duration; the off time follows
    from the requested duty cycle.
    """
    if not 0 < duty < 1:
        raise ValueError("duty must be in (0, 1)")
    rng = _rng(seed)
    n = _n_samples(duration_s, dt_s)
    samples = np.full(n, 0.02)  # off-floor before scaling
    i = 0
    off_s = burst_s * (1.0 - duty) / duty
    while i < n:
        off_len = max(1, int(rng.exponential(off_s) / dt_s))
        i += off_len
        if i >= n:
            break
        on_len = max(1, int(rng.exponential(burst_s) / dt_s))
        level = rng.uniform(0.7, 1.3)
        samples[i : i + on_len] = level
        i += on_len
    trace = PowerTrace(samples, dt_s, source="rf")
    return trace.scaled_to_mean(mean_power_w)


def thermal_trace(
    duration_s: float,
    dt_s: float = DEFAULT_DT_S,
    mean_power_w: float = 20e-6,
    seed: RngLike = None,
) -> PowerTrace:
    """Body-heat TEG: low power, slow drift, small ripple."""
    rng = _rng(seed)
    n = _n_samples(duration_s, dt_s)
    drift = 1.0 + 0.1 * _ou_process(n, dt_s, tau_s=5.0, sigma=0.5, rng=rng)
    ripple = 1.0 + 0.02 * rng.standard_normal(n)
    samples = np.clip(drift * ripple, 0.0, None)
    trace = PowerTrace(samples, dt_s, source="thermal")
    return trace.scaled_to_mean(mean_power_w)


#: Named generators for the stochastic sources (signature:
#: ``f(duration_s, dt_s=..., seed=...) -> PowerTrace``).
SOURCE_GENERATORS: Dict[str, Callable[..., PowerTrace]] = {
    "wristwatch": wristwatch_trace,
    "solar": solar_trace,
    "rf": rf_trace,
    "thermal": thermal_trace,
}


def combine_traces(traces: List[PowerTrace], source: str = "hybrid") -> PowerTrace:
    """Sum co-located harvesting sources into one supply trace.

    Multi-source harvesting (e.g. indoor light + body heat) smooths
    the supply: the combined trace's relative variability is lower
    than its burstiest component's.

    Raises:
        ValueError: if the traces differ in length or sampling period.
    """
    if len(traces) < 1:
        raise ValueError("need at least one trace")
    first = traces[0]
    total = np.zeros(len(first))
    for trace in traces:
        if len(trace) != len(first) or trace.dt_s != first.dt_s:
            raise ValueError("traces must share length and sampling period")
        total += trace.samples_w
    return PowerTrace(total, first.dt_s, source=source)


def hybrid_trace(
    duration_s: float,
    sources: Sequence[str] = ("solar", "thermal"),
    dt_s: float = DEFAULT_DT_S,
    seed: RngLike = None,
) -> PowerTrace:
    """A multi-source harvester: the sum of several source classes.

    Args:
        sources: names from :data:`SOURCE_GENERATORS`.

    Raises:
        KeyError: for unknown source names.
    """
    if len(sources) < 1:
        raise ValueError("need at least one source")
    rng = _rng(seed)
    traces = []
    for name in sources:
        if name not in SOURCE_GENERATORS:
            raise KeyError(
                f"unknown source {name!r}; known: {sorted(SOURCE_GENERATORS)}"
            )
        traces.append(SOURCE_GENERATORS[name](duration_s, dt_s, seed=rng))
    return combine_traces(traces, source="+".join(sources))


#: Mean power of the standard profiles; profile ``i`` uses entry
#: ``i % 5``.
_PROFILE_MEANS_W = (25e-6, 18e-6, 14e-6, 30e-6, 12e-6)


def standard_profile(
    index: int,
    duration_s: float = 10.0,
    dt_s: float = DEFAULT_DT_S,
    seed: int = 2017,
) -> PowerTrace:
    """Standard evaluation profile ``index`` (0-based), on its own.

    A wristwatch trace at the profile's mean power, drawn from the
    RNG stream ``seed + index`` and labelled ``profile-<index + 1>``:
    entry ``index`` of :func:`standard_profiles` without building the
    others.
    """
    if index < 0:
        raise ValueError("profile index must be >= 0")
    trace = wristwatch_trace(
        duration_s,
        dt_s,
        mean_power_w=_PROFILE_MEANS_W[index % len(_PROFILE_MEANS_W)],
        seed=seed + index,
    )
    trace.source = f"profile-{index + 1}"
    return trace


def standard_profiles(
    duration_s: float = 10.0,
    dt_s: float = DEFAULT_DT_S,
    seed: int = 2017,
    count: int = 5,
) -> List[PowerTrace]:
    """The five standard evaluation profiles.

    Mirrors the published methodology of evaluating against five
    distinct 10 s "daily life" wristwatch profiles; different seeds
    give different daily-activity patterns while keeping the same
    source statistics.
    """
    if count < 1:
        raise ValueError("need at least one profile")
    return [
        standard_profile(index, duration_s, dt_s, seed)
        for index in range(count)
    ]
