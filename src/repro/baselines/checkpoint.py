"""The software-checkpointing baseline (Hibernus class).

A volatile MCU with on-chip NVM (the MSP430-FRAM model) preserves
progress by copying its registers and live RAM to NVM through a
*software* loop — no distributed nonvolatile flip-flops.  Compared to
an NVP's hardware backup this is:

* **bigger** — the software cannot know the minimal live set, so it
  saves a conservative RAM window on top of the registers;
* **slower** — each word costs load/store instructions rather than a
  parallel flip-flop write;
* **triggered differently** — the Hibernus-class voltage trigger
  checkpoints once, when stored energy falls to a threshold, then
  sleeps and resumes on recovery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.progress import ForwardProgressLedger
from repro.nvm.technology import FERAM, NVMTechnology
from repro.system import exactkernel
from repro.system.fastpath import DormantCharging
from repro.system.simulator import TickReport
from repro.system.thresholds import ThresholdPlan, plan_thresholds
from repro.workloads.base import Workload


@dataclass(frozen=True)
class CheckpointConfig:
    """Software-checkpoint cost model.

    Attributes:
        technology: NVM the checkpoint is written to.
        checkpoint_words: words copied per checkpoint (registers plus
            the conservative live-RAM window).
        instructions_per_word: software copy-loop cost per word.
        margin: energy-safety multiplier for the voltage trigger.
        boot_time_s: MCU wake-up/re-init time (software restore adds
            the copy-back on top).
        label: result label.
    """

    technology: NVMTechnology = FERAM
    checkpoint_words: int = 96
    instructions_per_word: int = 4
    margin: float = 1.5
    boot_time_s: float = 400e-6
    label: str = "sw-checkpoint"

    def __post_init__(self) -> None:
        if self.checkpoint_words <= 0:
            raise ValueError("checkpoint_words must be positive")
        if self.instructions_per_word <= 0:
            raise ValueError("instructions_per_word must be positive")
        if self.margin < 1.0:
            raise ValueError("margin must be >= 1.0")
        if self.boot_time_s < 0:
            raise ValueError("boot time cannot be negative")
        if self.technology.volatile:
            raise ValueError("checkpoints need a nonvolatile technology")


class CheckpointPlatform(DormantCharging):
    """Volatile MCU + software checkpointing to on-chip NVM.

    Args:
        workload: the computation.
        storage: the storage element.
        config: checkpoint cost/trigger model.
    """

    def __init__(
        self,
        workload: Workload,
        storage,
        config: Optional[CheckpointConfig] = None,
    ) -> None:
        self.workload = workload
        self.storage = storage
        self.config = config if config is not None else CheckpointConfig()
        self.label = self.config.label
        self.ledger = ForwardProgressLedger()
        self._state = "off"
        self._stall_s = 0.0
        self._snapshot = workload.snapshot()
        self._has_checkpoint = False
        self._plan: Optional[ThresholdPlan] = None
        self.checkpoints = 0
        self.failed_checkpoints = 0
        self.resumes = 0
        self.failed_resumes = 0
        self.checkpoint_energy_total_j = 0.0
        self.restore_energy_total_j = 0.0
        self.consumed_j = 0.0

    # -- cost model --------------------------------------------------------

    def checkpoint_energy_j(self) -> float:
        """Energy of one software checkpoint (copy loop + NVM writes)."""
        cfg = self.config
        copy_instr = cfg.checkpoint_words * cfg.instructions_per_word
        software = copy_instr * self.workload.mean_instruction_energy_j()
        writes = cfg.technology.backup_energy_j(cfg.checkpoint_words * 16)
        return software + writes

    def restore_energy_j(self) -> float:
        """Energy of one software resume (read-back copy loop)."""
        cfg = self.config
        copy_instr = cfg.checkpoint_words * cfg.instructions_per_word
        software = copy_instr * self.workload.mean_instruction_energy_j()
        reads = cfg.technology.restore_energy_j(cfg.checkpoint_words * 16)
        return software + reads

    def restore_time_s(self) -> float:
        """Duration of one software resume, including MCU boot."""
        cfg = self.config
        copy_instr = cfg.checkpoint_words * cfg.instructions_per_word
        software = copy_instr * self.workload.mean_instruction_time_s()
        reads = cfg.technology.restore_time_s(cfg.checkpoint_words * 16, 16)
        return cfg.boot_time_s + software + reads

    def thresholds(self, dt_s: float) -> ThresholdPlan:
        """Energy thresholds of the voltage trigger."""
        if self._plan is None:
            self._plan = plan_thresholds(
                backup_cost_j=self.checkpoint_energy_j(),
                restore_cost_j=self.restore_energy_j(),
                run_power_w=self.workload.run_power_w(),
                tick_s=dt_s,
                backup_margin=self.config.margin,
                run_reserve_ticks=2.0,
            )
        return self._plan

    @property
    def finished(self) -> bool:
        """True when the workload has completed."""
        return self.workload.finished

    # -- state machine -------------------------------------------------------
    # ``tick`` and ``fast_forward`` come from DormantCharging: the
    # platform sleeps toward the start threshold.

    def off_state(self) -> Optional[str]:
        """``"off"`` while asleep, ``None`` while powered on."""
        return "off" if self._state == "off" else None

    def wake_target_j(self, dt_s: float) -> float:
        """The start threshold: stored energy that triggers a resume."""
        return self.thresholds(dt_s).start_threshold_j

    def _run_tick(self, p_in_w: float, dt_s: float) -> TickReport:
        """One powered-on tick: checkpoint at the threshold, else execute."""
        if self.storage.energy_j <= self.thresholds(dt_s).backup_threshold_j:
            return self._checkpoint_and_sleep(p_in_w, dt_s)

        exec_budget = max(0.0, dt_s - self._stall_s)
        self._stall_s = max(0.0, self._stall_s - dt_s)
        advance = self.workload.advance(exec_budget)
        self.ledger.execute(advance.instructions)
        load_w = advance.energy_j / dt_s
        step = self.storage.step(p_in_w, load_w, dt_s)
        self.consumed_j += step.delivered_j
        if step.deficit:
            self.ledger.rollback()
            self.workload.clear_volatile()
            self._state = "off"
        return TickReport("run", advance.instructions)

    def exact_batch(self, p_in_w, start, stop, dt_s):
        """Batch powered-on ``"run"`` ticks (exact-kernel engine).

        Same contract as
        :meth:`repro.core.nvp.NVPPlatform.exact_batch`: stops before
        the backup-threshold crossing.  Deficits and the finishing
        tick always stay on the scalar path.
        """
        if self._state != "on":
            return None
        return exactkernel.run_batch(
            self, p_in_w, start, stop, dt_s,
            lambda: {"stop_energy_j": self.thresholds(dt_s).backup_threshold_j},
        )

    # -- transitions -----------------------------------------------------------

    def _checkpoint_and_sleep(self, p_in_w: float, dt_s: float) -> TickReport:
        """Voltage-triggered checkpoint, then power down."""
        energy = self.checkpoint_energy_j()
        drawn = self.storage.draw(energy)
        self.consumed_j += drawn
        if drawn < energy:
            self.failed_checkpoints += 1
            self.ledger.rollback()
        else:
            self._snapshot = self.workload.snapshot()
            self._has_checkpoint = True
            self.checkpoints += 1
            self.checkpoint_energy_total_j += energy
            self.ledger.commit()
        self.workload.clear_volatile()
        self._state = "off"
        self._stall_s = 0.0
        self.storage.step(p_in_w, 0.0, dt_s)
        return TickReport("backup")

    def _wake(self) -> TickReport:
        """Wake up: software restore from the last checkpoint."""
        energy = self.restore_energy_j() if self._has_checkpoint else 0.0
        if energy > 0.0:
            drawn = self.storage.draw(energy)
            self.consumed_j += drawn
            if drawn < energy:
                self.failed_resumes += 1
                return TickReport("off")
            self.restore_energy_total_j += energy
        if self._has_checkpoint:
            self.workload.restore(self._snapshot)
            self._stall_s += self.restore_time_s()
        else:
            self.workload.restart_unit()
            self._stall_s += self.config.boot_time_s
        self.resumes += 1
        self._state = "on"
        return TickReport("restore")

    def stats(self) -> Dict[str, float]:
        """Counter snapshot for the simulation result."""
        return {
            "forward_progress": self.ledger.persistent,
            "total_executed": self.ledger.total_executed,
            "lost_instructions": self.ledger.lost,
            "units_completed": self.workload.units_completed,
            "backups": self.checkpoints,
            "restores": self.resumes,
            "failed_backups": self.failed_checkpoints,
            "failed_restores": self.failed_resumes,
            "rollbacks": self.ledger.rollbacks,
            "consumed_j": self.consumed_j,
            "backup_energy_j": self.checkpoint_energy_total_j,
            "restore_energy_j": self.restore_energy_total_j,
            "volatile_at_end": self.ledger.volatile,
        }
