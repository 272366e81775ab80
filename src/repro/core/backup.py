"""Backup strategies and the hardware backup controller.

A hardware-managed NVP backup copies the core's architectural state
into nonvolatile storage in a few microseconds.  Three strategies from
the literature are modelled, differing in *how much* is written:

* **full** — every state bit, every backup (simplest controller);
* **compare_and_write** — each nonvolatile flip-flop compares its
  volatile value against the stored one and skips identical bits
  (bit-level write masking, as in self-write-terminated designs);
* **incremental** — word-granularity dirty tracking: only words that
  changed since the previous backup are written.

Control state (PC, pipeline flip-flops) is always stored at nominal
retention; only the data-register words are subject to the optional
retention-shaping (approximate backup) policy.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.core.config import NVPConfig
from repro.nvm import ecc as ecc_code
from repro.nvm.array import NVMArray
from repro.nvm.retention import UniformPolicy


@dataclass(frozen=True)
class BackupResult:
    """Cost and size of one backup operation.

    Attributes:
        bits_written: nonvolatile bits actually programmed.
        energy_j: total backup energy (writes + controller overhead).
        time_s: backup duration.
    """

    bits_written: int
    energy_j: float
    time_s: float


class BackupStrategy(abc.ABC):
    """Decides which bits must be written for a backup."""

    name: str = "base"

    @abc.abstractmethod
    def bits_to_write(
        self,
        words_now: List[int],
        words_prev: Optional[List[int]],
        word_bits: int = 16,
    ) -> Tuple[int, List[int]]:
        """Return ``(bits_written, dirty_word_indices)``.

        ``words_prev`` is the previously backed-up image (``None`` for
        the first backup, which always writes everything).
        """


class FullBackup(BackupStrategy):
    """Every bit is rewritten on every backup."""

    name = "full"

    def bits_to_write(self, words_now, words_prev, word_bits=16):
        del words_prev
        return len(words_now) * word_bits, list(range(len(words_now)))


class CompareAndWriteBackup(BackupStrategy):
    """Bit-level write masking: only differing bits are programmed."""

    name = "compare_and_write"

    def bits_to_write(self, words_now, words_prev, word_bits=16):
        if words_prev is None or len(words_prev) != len(words_now):
            return len(words_now) * word_bits, list(range(len(words_now)))
        bits = 0
        dirty = []
        for index, (now, prev) in enumerate(zip(words_now, words_prev)):
            diff = (now ^ prev) & ((1 << word_bits) - 1)
            if diff:
                bits += bin(diff).count("1")
                dirty.append(index)
        return bits, dirty


class IncrementalWordBackup(BackupStrategy):
    """Word-granularity dirty tracking: changed words are rewritten whole."""

    name = "incremental"

    def bits_to_write(self, words_now, words_prev, word_bits=16):
        if words_prev is None or len(words_prev) != len(words_now):
            return len(words_now) * word_bits, list(range(len(words_now)))
        dirty = [
            index
            for index, (now, prev) in enumerate(zip(words_now, words_prev))
            if now != prev
        ]
        return len(dirty) * word_bits, dirty


_STRATEGIES = {
    cls.name: cls for cls in (FullBackup, CompareAndWriteBackup, IncrementalWordBackup)
}


def strategy_by_name(name: str) -> BackupStrategy:
    """Instantiate a backup strategy by name.

    Raises:
        KeyError: for unknown names.
    """
    if name not in _STRATEGIES:
        raise KeyError(
            f"unknown backup strategy {name!r}; known: {sorted(_STRATEGIES)}"
        )
    return _STRATEGIES[name]()


class BackupController:
    """The microarchitectural backup/restore engine.

    Owns two nonvolatile arrays: a *control* array (PC + pipeline,
    always precise) and a *data* array (register words, optionally
    retention-shaped), plus the strategy that decides write volumes.

    Args:
        config: the NVP configuration.
        data_words: number of data-register words per backup image.
    """

    def __init__(self, config: NVPConfig, data_words: int = 8) -> None:
        if data_words < 0:
            raise ValueError("data_words cannot be negative")
        self.config = config
        self.data_words = data_words
        self.sram_words = config.sram_backup_words
        self.control_words = max(1, config.state_words - data_words)
        tech = config.technology
        data_policy = (
            config.retention_policy
            if config.retention_policy is not None
            else UniformPolicy(tech.retention_s)
        )
        self.ecc = config.ecc
        self._data_word_bits = ecc_code.CODEWORD_BITS if config.ecc else 16
        approx_words = data_words + self.sram_words
        self._data_array = (
            NVMArray(
                max(1, approx_words),
                tech,
                policy=data_policy,
                word_bits=self._data_word_bits,
            )
            if approx_words > 0
            else None
        )
        self._control_array = NVMArray(
            self.control_words, tech, policy=UniformPolicy(tech.retention_s)
        )
        self.strategy = strategy_by_name(config.backup_strategy)
        self._prev_data_words: Optional[List[int]] = None
        self._has_image = False
        # Accounting.
        self.backup_count = 0
        self.restore_count = 0
        self.total_backup_energy_j = 0.0
        self.total_restore_energy_j = 0.0
        self.total_bits_written = 0
        self.total_flipped_bits = 0
        self.ecc_corrected = 0
        self.ecc_detected = 0

    @property
    def has_image(self) -> bool:
        """True once at least one backup has completed."""
        return self._has_image

    # -- cost estimation (used for thresholds) ---------------------------

    @property
    def total_backup_bits(self) -> int:
        """Full-image size: core state plus the SRAM working set
        (ECC-expanded when enabled)."""
        data_bits = self._data_word_bits * (self.data_words + self.sram_words)
        core_data_bits = 16 * self.data_words
        return self.config.state_bits - core_data_bits + data_bits

    def worst_case_backup_energy_j(self) -> float:
        """Energy of a full-image backup (the reserve the NVP must hold)."""
        control = self._control_array.word_write_energy_j * self.control_words
        data = (
            self._data_array.word_write_energy_j * (self.data_words + self.sram_words)
            if self._data_array is not None
            else 0.0
        )
        return control + data + self.config.controller_overhead_j

    def worst_case_backup_time_s(self) -> float:
        """Duration of a full-image backup."""
        return self.config.technology.backup_time_s(
            self.total_backup_bits, self.config.backup_parallelism
        )

    def restore_energy_j(self) -> float:
        """Energy of a full restore (read-back + controller overhead)."""
        return (
            self.config.technology.restore_energy_j(self.total_backup_bits)
            + self.config.controller_overhead_j
        )

    def restore_time_s(self) -> float:
        """Wake-up plus read-back time of a restore."""
        return self.config.technology.restore_time_s(
            self.total_backup_bits, self.config.backup_parallelism
        )

    # -- operations ---------------------------------------------------------

    def plan_backup(self, data_words: List[int]) -> BackupResult:
        """Cost a backup of this image *without* performing it.

        The platform first draws the planned energy from storage; only
        if that succeeds does it call :meth:`commit_backup` (real NVPs
        double-buffer the image so a failed backup never corrupts the
        previous one).

        Args:
            data_words: register words of the current state (length
                must equal ``data_words`` from construction).
        """
        if len(data_words) != self.data_words:
            raise ValueError(
                f"expected {self.data_words} data words, got {len(data_words)}"
            )
        # Control state (PC, pipeline) changes every cycle: always a
        # full write of the control words.  The SRAM working set churns
        # every run period, so it is also written in full.
        control_bits = self.control_words * 16
        sram_bits = self.sram_words * self._data_word_bits
        data_bits, dirty = self.strategy.bits_to_write(
            data_words, self._prev_data_words
        )
        if self.ecc:
            # Any change to a word rewrites its whole codeword (the
            # parity bits depend on every data bit).
            data_bits = len(dirty) * self._data_word_bits
        total_bits = control_bits + data_bits + sram_bits
        energy = (
            self._control_array.word_write_energy_j * self.control_words
            + (
                self._data_array.word_write_energy_j
                / self._data_word_bits
                * (data_bits + sram_bits)
                if self._data_array is not None
                else 0.0
            )
            + self.config.controller_overhead_j
        )
        time_s = self.config.technology.backup_time_s(
            total_bits, self.config.backup_parallelism
        )
        return BackupResult(bits_written=total_bits, energy_j=energy, time_s=time_s)

    def commit_backup(self, data_words: List[int], plan: BackupResult) -> None:
        """Perform the writes for a planned (and energy-funded) backup."""
        if len(data_words) != self.data_words:
            raise ValueError(
                f"expected {self.data_words} data words, got {len(data_words)}"
            )
        self._control_array.write_block(0, [0] * self.control_words)
        _, dirty = self.strategy.bits_to_write(data_words, self._prev_data_words)
        if self._data_array is not None:
            stored = [
                ecc_code.encode(data_words[index] & 0xFFFF)
                if self.ecc
                else data_words[index]
                for index in dirty
            ]
            # Undirtied words must still be *valid* in the array on the
            # first backup; the strategy guarantees a full first write.
            # The SRAM working-set words are modelled content-free.
            sram = [ecc_code.encode(0) if self.ecc else 0] * self.sram_words
            if len(dirty) == self.data_words:
                # Every word is dirty: one block holds the whole image.
                self._data_array.write_block(0, stored + sram)
            else:
                for index, word in zip(dirty, stored):
                    self._data_array.write(index, word)
                self._data_array.write_block(self.data_words, sram)
        self._prev_data_words = list(data_words)
        self._has_image = True
        self.backup_count += 1
        self.total_backup_energy_j += plan.energy_j
        self.total_bits_written += plan.bits_written

    def backup(self, data_words: List[int]) -> BackupResult:
        """Plan and immediately commit a backup (convenience for tests)."""
        plan = self.plan_backup(data_words)
        self.commit_backup(data_words, plan)
        return plan

    def age(self, outage_s: float, rng: np.random.Generator) -> int:
        """Relax the stored image through a power outage.

        Returns the number of data bits that flipped.
        """
        if not self._has_image or self._data_array is None:
            return 0
        flips = self._data_array.power_outage(outage_s, rng)
        self.total_flipped_bits += flips
        return flips

    def read_image(self) -> Tuple[List[int], float, float]:
        """Read the (possibly corrupted) data image back.

        Returns:
            ``(data_words, energy_j, time_s)``.

        Raises:
            RuntimeError: if no backup image exists yet.
        """
        if not self._has_image:
            raise RuntimeError("no backup image to restore from")
        if self._data_array is not None:
            raw = self._data_array.read_block(0, self.data_words)
            if self.ecc:
                words = []
                for stored in raw:
                    result = ecc_code.decode(stored)
                    if result.status is ecc_code.DecodeStatus.CORRECTED:
                        self.ecc_corrected += 1
                    elif result.status is ecc_code.DecodeStatus.DETECTED:
                        self.ecc_detected += 1
                    words.append(result.value)
            else:
                words = raw
        else:
            words = []
        energy = self.restore_energy_j()
        time_s = self.restore_time_s()
        self.restore_count += 1
        self.total_restore_energy_j += energy
        return words, energy, time_s
