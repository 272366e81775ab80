"""Behavioral NVM array with energy accounting and retention failures.

This is the storage target of the backup controller: a small array of
16-bit words (register file + pipeline state + marked RAM words).  It
charges write/read energy per access according to the attached
technology and retention-shaping policy, and can be aged through a
power outage, which relaxes (randomises) bits whose retention target
was shorter than the outage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.nvm.retention import (
    RetentionPolicy,
    UniformPolicy,
    profile_backup_energy_j,
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
        # Python lists: a backup or wake touches a few words, where
        # numpy's per-call cost would outweigh its per-word gain.
        self._words = [0] * size_words
        self._valid = [False] * size_words
        self._write_counts = [0] * size_words
        self.stats = ArrayStats(bit_failures=[0] * word_bits)
        profile = tuple(self.policy.retention_profile(word_bits))
        self._word_write_energy_j = profile_backup_energy_j(
            profile, technology, self.stt_params
        )
        self._retention_profile = np.array(profile, dtype=float)

    @property
    def word_write_energy_j(self) -> float:
        """Energy charged for one word write under the current policy."""
        return self._word_write_energy_j

    def write(self, address: int, value: int) -> None:
        """Write one word, charging policy-shaped write energy.

        A worn word (with ``enforce_endurance=True``) still costs the
        write energy, but its contents stick at their last value.
        """
        self._check_range(address, 1)
        self._write(address, [value])

    def write_block(self, base: int, values: Sequence[int]) -> None:
        """Write a contiguous block of words, as that many :meth:`write`
        calls would, after checking that the whole block fits."""
        values = list(values)
        self._check_range(base, len(values))
        self._write(base, values)

    def _write(self, base: int, values: List[int]) -> None:
        stats = self.stats
        counts = self._write_counts
        words = self._words
        valid = self._valid
        mask = (1 << self.word_bits) - 1
        word_energy = self._word_write_energy_j
        # One addition per word keeps the float sum's bits.
        energy = stats.write_energy_j
        endurance = (
            self.technology.endurance_cycles if self.enforce_endurance
            else math.inf
        )
        for address, value in enumerate(values, base):
            energy += word_energy
            counts[address] += 1
            if counts[address] > endurance:
                stats.worn_writes += 1
                continue
            words[address] = value & mask
            valid[address] = True
        stats.write_energy_j = energy
        stats.writes += len(values)

    def read(self, address: int) -> int:
        """Read one word, charging read energy.

        Raises:
            ValueError: if the word was never written (reading
                uninitialised NVM is almost always a harness bug).
        """
        return self.read_block(address, 1)[0]

    def read_block(self, base: int, count: int) -> List[int]:
        """Read a contiguous block of words, as that many :meth:`read`
        calls would, after checking the whole block first.

        Raises:
            ValueError: if the block leaves the array, ``count`` is
                negative, or a word in it was never written; nothing is
                charged then.
        """
        self._check_range(base, count)
        stop = base + count
        if not all(self._valid[base:stop]):
            address = self._valid.index(False, base, stop)
            raise ValueError(f"word {address} has never been written")
        stats = self.stats
        word_energy = self.technology.read_energy_j_per_bit * self.word_bits
        energy = stats.read_energy_j
        for _ in range(count):
            energy += word_energy
        stats.read_energy_j = energy
        stats.reads += count
        return self._words[base:stop]

    def power_outage(self, duration_s: float, rng: np.random.Generator) -> int:
        """Age the array through a power outage.

        Every valid word's bits relax independently with probability
        ``1 - exp(-duration / retention(bit))``; relaxed bits read back
        random values.  Returns the number of bits that actually
        flipped.

        Two uniform draws per valid bit are taken from ``rng`` (the
        relax test, then the random read-back) whenever a word is
        valid and the outage is longer than zero, relaxed or not.

        Raises:
            ValueError: if ``duration_s`` is negative or NaN.
        """
        if not duration_s >= 0:
            raise ValueError(
                f"outage duration_s must be >= 0, got {duration_s!r}"
            )
        self.stats.outages += 1
        valid_idx = [i for i, valid in enumerate(self._valid) if valid]
        if not valid_idx or duration_s == 0.0:
            return 0
        p_relax = 1.0 - np.exp(-duration_s / self._retention_profile)
        draws = rng.random((2, len(valid_idx), self.word_bits))
        relaxed = draws[0] < p_relax
        if not relaxed.any():
            # Retention far longer than the outage: the common case.
            return 0
        failures = self.stats.bit_failures
        for bit, count in enumerate(relaxed.sum(axis=0).tolist()):
            failures[bit] += count
        # A relaxed cell reads back a random bit: it flips with p=0.5.
        flips = relaxed & (draws[1] < 0.5)
        if not flips.any():
            return 0
        flip_masks = (flips * _BIT_WEIGHTS[: self.word_bits]).sum(
            axis=1, dtype=np.uint32
        )
        words = self._words
        for address, flip in zip(valid_idx, flip_masks.tolist()):
            words[address] ^= flip
        return int(flips.sum())

    def wear_report(self) -> "WearReport":
        """Endurance snapshot (see :class:`WearReport`)."""
        counts = self._write_counts
        endurance = self.technology.endurance_cycles
        return WearReport(
            max_writes=max(counts),
            mean_writes=sum(counts) / len(counts),
            worn_words=sum(count > endurance for count in counts),
            endurance_cycles=endurance,
        )

    def _check_range(self, base: int, count: int) -> None:
        """Reject a block that is not ``count >= 0`` words inside the
        array, before any word or counter is touched."""
        if count < 0:
            raise ValueError(f"word count {count} is negative")
        if not (0 <= base and base + count <= self.size_words):
            where = (
                f"address {base}" if count == 1
                else f"block of {count} words at {base}"
            )
            raise ValueError(
                f"{where} outside array of {self.size_words} words"
            )
