"""Behavioral NVM array with energy accounting and retention failures.

This is the storage target of the backup controller: a small array of
16-bit words (register file + pipeline state + marked RAM words).  It
charges write/read energy per access according to the attached
technology and retention-shaping policy, and can be aged through a
power outage, which relaxes (randomises) bits whose retention target
was shorter than the outage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.nvm.retention import (
    RetentionPolicy,
    UniformPolicy,
    policy_backup_energy_j,
)
from repro.nvm.sttram import DEFAULT_STT, STTParameters
from repro.nvm.technology import NVMTechnology, FERAM

#: ``2**b`` for bit ``b`` of a word: a row of an outage's flip matrix,
#: weighted by these and summed, is that word's XOR mask.
_BIT_WEIGHTS = np.left_shift(np.uint32(1), np.arange(32, dtype=np.uint32))
_BIT_WEIGHTS.flags.writeable = False


@dataclass
class ArrayStats:
    """Cumulative accounting for an :class:`NVMArray`."""

    writes: int = 0
    reads: int = 0
    write_energy_j: float = 0.0
    read_energy_j: float = 0.0
    outages: int = 0
    #: writes rejected because the cell's endurance was exhausted
    #: (only with ``enforce_endurance=True``).
    worn_writes: int = 0
    #: retention failures observed per bit index (LSB first).
    bit_failures: List[int] = field(default_factory=list)

    def total_failures(self) -> int:
        return sum(self.bit_failures)


@dataclass(frozen=True)
class WearReport:
    """Endurance snapshot of an array.

    Attributes:
        max_writes: write count of the most-worn word.
        mean_writes: average write count across all words.
        worn_words: words whose write count exceeds the technology's
            endurance.
        endurance_cycles: the technology's endurance budget.
    """

    max_writes: int
    mean_writes: float
    worn_words: int
    endurance_cycles: float

    @property
    def headroom(self) -> float:
        """Remaining endurance fraction of the most-worn word."""
        if self.endurance_cycles <= 0:
            return 0.0
        return max(0.0, 1.0 - self.max_writes / self.endurance_cycles)


class NVMArray:
    """A word-addressed nonvolatile array.

    Args:
        size_words: number of 16-bit words.
        technology: device technology from the catalog.
        policy: retention-shaping policy; defaults to uniform nominal
            retention (precise backup).
        word_bits: bits per word (16 for NV16 state).
        stt_params: analytic device parameters used for the
            retention/energy scaling.
        enforce_endurance: when True, a word written more times than
            the technology's endurance becomes *stuck* — further writes
            are silently dropped (counted in ``stats.worn_writes``),
            modelling worn-out cells.
    """

    def __init__(
        self,
        size_words: int,
        technology: NVMTechnology = FERAM,
        policy: Optional[RetentionPolicy] = None,
        word_bits: int = 16,
        stt_params: Optional[STTParameters] = None,
        enforce_endurance: bool = False,
    ) -> None:
        if size_words <= 0:
            raise ValueError("array must have at least one word")
        if word_bits <= 0 or word_bits > 32:
            raise ValueError("word_bits must be in 1..32")
        self.size_words = size_words
        self.technology = technology
        self.policy = policy if policy is not None else UniformPolicy(
            technology.retention_s
        )
        self.word_bits = word_bits
        self.stt_params = stt_params if stt_params is not None else DEFAULT_STT
        self.enforce_endurance = enforce_endurance
        self._words = np.zeros(size_words, dtype=np.uint32)
        self._valid = np.zeros(size_words, dtype=bool)
        self._write_counts = np.zeros(size_words, dtype=np.int64)
        self.stats = ArrayStats(bit_failures=[0] * word_bits)
        self._word_write_energy_j = policy_backup_energy_j(
            self.policy, technology, word_bits, self.stt_params
        )
        # Failure probability per bit per unit outage is derived lazily
        # from the policy profile.
        self._retention_profile = np.array(
            self.policy.retention_profile(word_bits), dtype=float
        )

    @property
    def word_write_energy_j(self) -> float:
        """Energy charged for one word write under the current policy."""
        return self._word_write_energy_j

    def write(self, address: int, value: int) -> None:
        """Write one word, charging policy-shaped write energy.

        A worn word (with ``enforce_endurance=True``) still costs the
        write energy, but its contents stick at their last value.
        """
        self._check_address(address)
        self.stats.writes += 1
        self.stats.write_energy_j += self._word_write_energy_j
        self._write_counts[address] += 1
        if (
            self.enforce_endurance
            and self._write_counts[address] > self.technology.endurance_cycles
        ):
            self.stats.worn_writes += 1
            return
        mask = (1 << self.word_bits) - 1
        self._words[address] = value & mask
        self._valid[address] = True

    def write_block(self, base: int, values: Sequence[int]) -> None:
        """Write a contiguous block of words."""
        for offset, value in enumerate(values):
            self.write(base + offset, value)

    def read(self, address: int) -> int:
        """Read one word, charging read energy.

        Raises:
            ValueError: if the word was never written (reading
                uninitialised NVM is almost always a harness bug).
        """
        self._check_address(address)
        if not self._valid[address]:
            raise ValueError(f"word {address} has never been written")
        self.stats.reads += 1
        self.stats.read_energy_j += (
            self.technology.read_energy_j_per_bit * self.word_bits
        )
        return int(self._words[address])

    def read_block(self, base: int, count: int) -> List[int]:
        """Read a contiguous block of words."""
        return [self.read(base + offset) for offset in range(count)]

    def power_outage(self, duration_s: float, rng: np.random.Generator) -> int:
        """Age the array through a power outage.

        Every valid word's bits relax independently with probability
        ``1 - exp(-duration / retention(bit))``; relaxed bits read back
        random values.  Returns the number of bits that actually
        flipped.
        """
        if duration_s < 0:
            raise ValueError("outage duration cannot be negative")
        self.stats.outages += 1
        valid_idx = np.flatnonzero(self._valid)
        if len(valid_idx) == 0 or duration_s == 0.0:
            return 0
        p_relax = 1.0 - np.exp(-duration_s / self._retention_profile)
        relaxed = rng.random((len(valid_idx), self.word_bits)) < p_relax
        # A relaxed cell reads back a random bit: it flips with p=0.5.
        flips = relaxed & (rng.random(relaxed.shape) < 0.5)
        failures = self.stats.bit_failures
        for bit, count in enumerate(relaxed.sum(axis=0).tolist()):
            failures[bit] += count
        if not flips.any():
            return 0
        flip_masks = (flips * _BIT_WEIGHTS[: self.word_bits]).sum(
            axis=1, dtype=np.uint32
        )
        self._words[valid_idx] ^= flip_masks
        return int(flips.sum())

    def wear_report(self) -> "WearReport":
        """Endurance snapshot (see :class:`WearReport`)."""
        worn = int(
            np.sum(self._write_counts > self.technology.endurance_cycles)
        )
        return WearReport(
            max_writes=int(self._write_counts.max()),
            mean_writes=float(self._write_counts.mean()),
            worn_words=worn,
            endurance_cycles=self.technology.endurance_cycles,
        )

    def _check_address(self, address: int) -> None:
        if not 0 <= address < self.size_words:
            raise ValueError(
                f"address {address} outside array of {self.size_words} words"
            )
