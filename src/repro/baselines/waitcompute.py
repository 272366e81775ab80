"""The wait-and-compute baseline.

A volatile low-power MCU sleeps while the harvester trickle-charges a
(large) storage capacitor; once the capacitor holds enough energy for
an entire work unit — e.g. one image frame — the MCU boots and runs
the unit to completion on stored energy.  Progress commits only at
unit boundaries: a brownout mid-unit loses the whole unit, and all the
energy that went into it.

This paradigm pays the capacitor's leakage and conversion losses on
every joule, and its wait times grow with unit size; those are the
systemic costs the NVP paradigm removes.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.progress import ForwardProgressLedger
from repro.system import exactkernel
from repro.system.fastpath import DormantCharging
from repro.system.simulator import TickReport
from repro.workloads.base import Workload


class WaitComputePlatform(DormantCharging):
    """Charge-then-run volatile MCU.

    Args:
        workload: the computation (unit-structured).
        storage: the (large) storage element.
        energy_margin: multiplier on the estimated unit energy that
            must be stored before booting.
        boot_time_s: MCU boot/init time after power-up (volatile MCUs
            re-initialise from ROM every time).
        boot_energy_j: energy consumed by boot.
        label: result label.
    """

    def __init__(
        self,
        workload: Workload,
        storage,
        energy_margin: float = 1.3,
        boot_time_s: float = 1e-3,
        boot_energy_j: float = 0.2e-6,
        label: str = "wait-compute",
    ) -> None:
        if energy_margin < 1.0:
            raise ValueError("energy margin must be >= 1.0")
        if boot_time_s < 0 or boot_energy_j < 0:
            raise ValueError("boot costs cannot be negative")
        self.workload = workload
        self.storage = storage
        self.energy_margin = energy_margin
        self.boot_time_s = boot_time_s
        self.boot_energy_j = boot_energy_j
        self.label = label
        self.ledger = ForwardProgressLedger()
        self._state = "off"
        self._stall_s = 0.0
        self._committed_units = 0
        self.boots = 0
        self.failed_boots = 0
        self.consumed_j = 0.0

    @property
    def finished(self) -> bool:
        """True when the workload has completed."""
        return self.workload.finished

    def unit_energy_target_j(self) -> float:
        """Stored energy required before booting."""
        unit_energy = (
            self.workload.unit_instructions
            * self.workload.mean_instruction_energy_j()
        )
        return self.energy_margin * unit_energy + self.boot_energy_j

    # -- state machine -------------------------------------------------------
    # ``tick`` and ``fast_forward`` come from DormantCharging.

    def off_state(self) -> Optional[str]:
        """``"charge"`` while asleep, ``None`` while running a unit."""
        return "charge" if self._state == "off" else None

    def wake_target_j(self, dt_s: float) -> float:
        """The unit-energy target; it moves as units complete."""
        del dt_s
        return self.unit_energy_target_j()

    def _run_tick(self, p_in_w: float, dt_s: float) -> TickReport:
        """One tick of running a unit on stored energy."""
        exec_budget = max(0.0, dt_s - self._stall_s)
        self._stall_s = max(0.0, self._stall_s - dt_s)
        units_before = self.workload.units_completed
        advance = self.workload.advance(exec_budget)
        self.ledger.execute(advance.instructions)
        load_w = advance.energy_j / dt_s
        step = self.storage.step(p_in_w, load_w, dt_s)
        self.consumed_j += step.delivered_j
        if step.deficit:
            # Brownout mid-unit: the volatile MCU loses everything it
            # had not yet committed (i.e. the current unit).
            self.ledger.rollback()
            self.workload.clear_volatile()
            self.workload.restart_unit()
            self._state = "off"
            return TickReport("run", advance.instructions)
        if self.workload.units_completed > units_before:
            # Unit boundary: results are transmitted/persisted.
            self.ledger.commit()
            self._committed_units = self.workload.units_completed
            if (
                not self.workload.finished
                and self.storage.energy_j < self.unit_energy_target_j()
            ):
                # Not enough stored energy for another full unit:
                # power down gracefully and recharge.
                self._state = "off"
        return TickReport("run", advance.instructions)

    def _wake(self) -> TickReport:
        """Attempt to boot off stored energy once the target is met."""
        drawn = self.storage.draw(self.boot_energy_j)
        self.consumed_j += drawn
        if drawn < self.boot_energy_j:
            self.failed_boots += 1
            return TickReport("charge")
        self.boots += 1
        self._stall_s = self.boot_time_s
        self._state = "on"
        return TickReport("restore")

    def exact_batch(self, p_in_w, start, stop, dt_s):
        """Batch on-unit ``"run"`` ticks (exact-kernel engine).

        Same contract as
        :meth:`repro.core.nvp.NVPPlatform.exact_batch`.  Stops before
        any tick whose instructions cross a unit boundary — commits,
        the post-commit energy check and the possible power-down all
        execute on the scalar path — and before deficits and the
        finishing tick.  Only the closed-form recurrence can predict a
        unit boundary before executing the tick, so functional
        workloads stay on the scalar path.
        """
        if self._state != "on":
            return None
        return exactkernel.run_batch(
            self, p_in_w, start, stop, dt_s,
            lambda: {"stop_at_unit_boundary": True},
        )

    def stats(self) -> Dict[str, float]:
        """Counter snapshot for the simulation result."""
        return {
            "forward_progress": self.ledger.persistent,
            "total_executed": self.ledger.total_executed,
            "lost_instructions": self.ledger.lost,
            "units_completed": self.workload.units_completed,
            "backups": 0,
            "restores": self.boots,
            "failed_backups": 0,
            "failed_restores": self.failed_boots,
            "rollbacks": self.ledger.rollbacks,
            "consumed_j": self.consumed_j,
            "backup_energy_j": 0.0,
            "restore_energy_j": self.boots * self.boot_energy_j,
            "volatile_at_end": self.ledger.volatile,
        }
