"""Retention-shaping policies and the bit-failure model.

Retention-relaxed backup writes the *lower-significance* bits of each
backed-up word with weaker (cheaper) write pulses: a power outage that
outlasts a bit's retention target leaves that bit in a random state,
which costs output quality rather than correctness of the high-order
bits.  A shaping policy maps bit significance to a retention target;
the three shapes surveyed in the NVP literature (and provided here)
are *linear*, *log* (geometric — most aggressive, suited to
noise-tolerant kernels) and *parabola* (most conservative about the
upper bits).

Failure model: a cell written for retention ``T`` relaxes during an
outage of duration ``d`` with probability ``1 - exp(-d/T)``; a relaxed
cell reads back a uniformly random bit.
"""

from __future__ import annotations

import abc
import functools
import math
from typing import List, Optional, Tuple

import numpy as np

from repro.nvm.sttram import (
    DEFAULT_STT,
    STTParameters,
    write_energy_at_optimum,
)
from repro.nvm.technology import NVMTechnology


class RetentionPolicy(abc.ABC):
    """Maps bit significance to a retention-time target.

    Bit index 0 is the least-significant bit; ``width - 1`` the most
    significant.  Policies must be monotonically non-decreasing in bit
    significance — the MSB is always retained at least as long as any
    lower bit.
    """

    #: short name used in reports; subclasses override.
    name: str = "base"

    @abc.abstractmethod
    def retention_s(self, bit: int, width: int = 16) -> float:
        """Retention target (seconds) for bit ``bit`` of a ``width``-bit word."""

    def retention_profile(self, width: int = 16) -> List[float]:
        """Retention targets for all bits, LSB first."""
        return [self.retention_s(bit, width) for bit in range(width)]

    def validate(self, width: int = 16) -> None:
        """Check monotonicity and positivity of the profile.

        Raises:
            ValueError: if any retention is non-positive or the profile
                decreases with significance.
        """
        profile = self.retention_profile(width)
        for bit, value in enumerate(profile):
            if value <= 0:
                raise ValueError(f"{self.name}: retention for bit {bit} is {value}")
        for low, high in zip(profile, profile[1:]):
            if high < low:
                raise ValueError(f"{self.name}: retention profile not monotonic")

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


def _check_span(t_lsb_s: float, t_msb_s: float) -> None:
    if t_lsb_s <= 0 or t_msb_s <= 0:
        raise ValueError("retention times must be positive")
    if t_msb_s < t_lsb_s:
        raise ValueError("MSB retention must be >= LSB retention")


def _significance(bit: int, width: int) -> float:
    """Normalised significance of a bit: 0.0 for LSB, 1.0 for MSB."""
    if width < 1:
        raise ValueError("width must be at least 1")
    if not 0 <= bit < width:
        raise ValueError(f"bit {bit} out of range for width {width}")
    if width == 1:
        return 1.0
    return bit / (width - 1)


class UniformPolicy(RetentionPolicy):
    """Every bit gets the same retention target (no shaping)."""

    name = "uniform"

    def __init__(self, retention_s: float) -> None:
        if retention_s <= 0:
            raise ValueError("retention must be positive")
        self._retention_s = retention_s

    def retention_s(self, bit: int, width: int = 16) -> float:
        _significance(bit, width)  # validates the arguments
        return self._retention_s

    def __repr__(self) -> str:
        return f"UniformPolicy(retention_s={self._retention_s!r})"


class LinearPolicy(RetentionPolicy):
    """Retention grows linearly with bit significance."""

    name = "linear"

    def __init__(self, t_lsb_s: float, t_msb_s: float) -> None:
        _check_span(t_lsb_s, t_msb_s)
        self._t_lsb_s = t_lsb_s
        self._t_msb_s = t_msb_s

    def retention_s(self, bit: int, width: int = 16) -> float:
        s = _significance(bit, width)
        return self._t_lsb_s + (self._t_msb_s - self._t_lsb_s) * s

    def __repr__(self) -> str:
        return f"LinearPolicy(t_lsb_s={self._t_lsb_s!r}, t_msb_s={self._t_msb_s!r})"


class LogPolicy(RetentionPolicy):
    """Retention grows geometrically with significance (aggressive).

    Low bits get retention close to ``t_lsb_s`` and only the top bits
    approach ``t_msb_s``; because retention enters the failure
    probability exponentially this is the most energy-saving shape and
    fits noise-tolerant kernels.
    """

    name = "log"

    def __init__(self, t_lsb_s: float, t_msb_s: float) -> None:
        _check_span(t_lsb_s, t_msb_s)
        self._t_lsb_s = t_lsb_s
        self._t_msb_s = t_msb_s

    def retention_s(self, bit: int, width: int = 16) -> float:
        s = _significance(bit, width)
        ratio = self._t_msb_s / self._t_lsb_s
        return self._t_lsb_s * math.pow(ratio, s)

    def __repr__(self) -> str:
        return f"LogPolicy(t_lsb_s={self._t_lsb_s!r}, t_msb_s={self._t_msb_s!r})"


class ParabolaPolicy(RetentionPolicy):
    """Retention grows quadratically with significance (conservative).

    Mid-significance bits are kept closer to the LSB target, but the
    top bits climb steeply to ``t_msb_s`` — suited to kernels whose
    quality collapses if upper bits are lost.
    """

    name = "parabola"

    def __init__(self, t_lsb_s: float, t_msb_s: float) -> None:
        _check_span(t_lsb_s, t_msb_s)
        self._t_lsb_s = t_lsb_s
        self._t_msb_s = t_msb_s

    def retention_s(self, bit: int, width: int = 16) -> float:
        s = _significance(bit, width)
        return self._t_lsb_s + (self._t_msb_s - self._t_lsb_s) * s * s

    def __repr__(self) -> str:
        return f"ParabolaPolicy(t_lsb_s={self._t_lsb_s!r}, t_msb_s={self._t_msb_s!r})"


def failure_probability(outage_s: float, retention_s: float) -> float:
    """Probability a cell relaxes during an outage of ``outage_s`` seconds."""
    if not outage_s >= 0:
        raise ValueError(f"outage_s must be >= 0, got {outage_s!r}")
    if retention_s <= 0:
        raise ValueError("retention must be positive")
    return 1.0 - math.exp(-outage_s / retention_s)


def sample_bit_failures(
    policy: RetentionPolicy,
    outage_s: float,
    width: int,
    rng: np.random.Generator,
) -> int:
    """Sample which bits of a word relax during an outage.

    Returns:
        A bitmask with 1s at relaxed bit positions.
    """
    mask = 0
    for bit in range(width):
        p = failure_probability(outage_s, policy.retention_s(bit, width))
        if rng.random() < p:
            mask |= 1 << bit
    return mask


def corrupt_word(value: int, relaxed_mask: int, rng: np.random.Generator) -> int:
    """Randomise the relaxed bits of a stored word.

    A relaxed cell reads back 0 or 1 with equal probability, so on
    average half the relaxed bits actually flip.
    """
    result = value
    bit = 0
    mask = relaxed_mask
    while mask:
        if mask & 1:
            if rng.random() < 0.5:
                result ^= 1 << bit
        mask >>= 1
        bit += 1
    return result


def policy_backup_energy_j(
    policy: RetentionPolicy,
    technology: NVMTechnology,
    width: int = 16,
    params: Optional[STTParameters] = None,
) -> float:
    """Per-word backup write energy under a retention-shaping policy.

    The Δ²-scaling of the analytic STT model is applied relative to the
    technology's nominal (full-retention) per-bit write energy, so the
    same relative savings apply to any relaxation-capable technology.

    Raises:
        ValueError: if the technology does not support retention
            relaxation and the policy is not uniform at nominal
            retention.
    """
    return profile_backup_energy_j(
        tuple(policy.retention_profile(width)),
        technology,
        params if params is not None else DEFAULT_STT,
    )


@functools.lru_cache(maxsize=256)
def profile_backup_energy_j(
    profile: Tuple[float, ...],
    technology: NVMTechnology,
    params: STTParameters = DEFAULT_STT,
) -> float:
    """:func:`policy_backup_energy_j` of a policy's retention profile
    (LSB first), memoized: the profile is a tuple and the technology
    and device parameters are frozen dataclasses, so every NVP built
    with the same ones shares one result."""
    nominal = write_energy_at_optimum(technology.retention_s, params)
    scale = technology.write_energy_j_per_bit / nominal
    if not technology.supports_retention_relaxation:
        if any(t < technology.retention_s for t in profile):
            raise ValueError(
                f"{technology.name} does not support retention relaxation"
            )
    total = 0.0
    for retention_s in profile:
        target = min(retention_s, technology.retention_s)
        total += write_energy_at_optimum(target, params) * scale
    return total
