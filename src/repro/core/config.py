"""NVP architecture configuration."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from repro.nvm.retention import RetentionPolicy
from repro.nvm.technology import FERAM, NVMTechnology

#: Architectural state of the NV16 core that a hardware backup saves:
#: 8 × 16-bit registers + 16-bit PC + status, plus the pipeline
#: flip-flops of a simple 5-stage implementation (~200 bits).
DEFAULT_STATE_BITS = 8 * 16 + 16 + 8 + 200


@dataclass
class NVPConfig:
    """Knobs of the nonvolatile processor.

    Attributes:
        technology: NVM technology holding the mirrored state.
        clock_hz: core clock frequency.
        state_bits: architectural state bits saved per backup.
        backup_parallelism: bits written per NVM write-latency quantum
            (distributed nonvolatile flip-flops write massively in
            parallel).
        backup_strategy: ``"full"``, ``"compare_and_write"`` or
            ``"incremental"``.
        retention_policy: optional retention-shaping policy for
            approximate backup; ``None`` means precise backup at the
            technology's nominal retention.
        backup_margin: multiplier on the backup energy held in reserve
            before a backup is triggered (>1 guards against the power
            collapsing mid-backup).
        run_reserve_ticks: extra run-time energy (in simulator ticks)
            required above the backup reserve before waking up, to
            avoid thrashing between restore and backup.
        controller_overhead_j: fixed controller/sequencing energy per
            backup or restore operation.
        sram_backup_words: volatile working-set words the backup must
            also persist.  Platforms whose data memory is SRAM (rather
            than in-place NVM) save a working-set window on every
            backup — this is what makes backup energy a 20-30% share
            of harvested income on real prototypes.  The words are
            subject to the retention-shaping policy.
        ecc: protect the (relaxable) data image with a SECDED Hamming
            code — 22 stored bits per 16-bit word.  Costs 37.5% extra
            write energy on the data image but corrects any single
            relaxed cell per word on restore, the standard pairing
            with retention-relaxed backup.
        approx_registers: which data registers may be restored with
            relaxation-induced bit errors (the hardware "AC bit" per
            register).  ``None`` = all of them; ``()`` = none (register
            values are always restored exactly, while the rest of the
            relaxed image still saves its energy).  Real designs mark
            only data-carrying registers — corrupting a pointer or a
            loop counter breaks control flow rather than degrading
            output quality.
    """

    technology: NVMTechnology = FERAM
    clock_hz: float = 1e6
    state_bits: int = DEFAULT_STATE_BITS
    backup_parallelism: int = 64
    backup_strategy: str = "full"
    retention_policy: Optional[RetentionPolicy] = None
    backup_margin: float = 1.5
    run_reserve_ticks: float = 2.0
    controller_overhead_j: float = 20e-12
    sram_backup_words: int = 0
    ecc: bool = False
    approx_registers: Optional[tuple] = None
    label: str = field(default="nvp")

    def __post_init__(self) -> None:
        # The real-valued knobs are written so NaN and infinity fail
        # too: every comparison with NaN is False.
        if not 0 < self.clock_hz < math.inf:
            raise ValueError("clock_hz must be positive and finite")
        if self.state_bits <= 0:
            raise ValueError("state_bits must be positive")
        if self.backup_parallelism <= 0:
            raise ValueError("backup_parallelism must be positive")
        if self.backup_strategy not in ("full", "compare_and_write", "incremental"):
            raise ValueError(
                f"unknown backup strategy {self.backup_strategy!r}"
            )
        if not 1.0 <= self.backup_margin < math.inf:
            raise ValueError("backup_margin must be >= 1.0 and finite")
        if not 0 <= self.run_reserve_ticks < math.inf:
            raise ValueError("run_reserve_ticks must be >= 0 and finite")
        if not 0 <= self.controller_overhead_j < math.inf:
            raise ValueError("controller_overhead_j must be >= 0 and finite")
        if self.sram_backup_words < 0:
            raise ValueError("sram_backup_words cannot be negative")
        if self.approx_registers is not None:
            for index in self.approx_registers:
                if not 0 <= index <= 7:
                    raise ValueError(
                        f"approx register index {index} outside 0..7"
                    )
        if self.technology.volatile:
            raise ValueError("an NVP cannot use a volatile state technology")
        if self.retention_policy is not None and not (
            self.technology.supports_retention_relaxation
        ):
            profile = self.retention_policy.retention_profile(16)
            if any(t < self.technology.retention_s for t in profile):
                raise ValueError(
                    f"{self.technology.name} does not support retention relaxation"
                )

    @property
    def state_words(self) -> int:
        """State size in 16-bit words (rounded up)."""
        return -(-self.state_bits // 16)
