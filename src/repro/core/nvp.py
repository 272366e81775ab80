"""The NVP platform model: the tick-level state machine.

``NVPPlatform`` composes a workload (the NV16 core or an abstract
instruction mix), a storage element, and the backup controller into
the execution paradigm that defines a nonvolatile processor:

* execute whenever stored energy is above the *backup threshold*;
* when energy falls to the threshold, back up the architectural state
  to NVM (microseconds, double-buffered) and power down;
* when energy recovers past the *start threshold*, restore and resume
  exactly where execution stopped.

Work executed since the last successful backup is volatile and is
lost if power collapses faster than the backup can complete — the
margin built into the backup threshold controls how often that
happens.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Union

import numpy as np

from repro.core.backup import BackupController
from repro.core.config import NVPConfig
from repro.core.progress import ForwardProgressLedger
from repro.obs import events as ev
from repro.obs.events import EventBus
from repro.system import exactkernel
from repro.system.fastpath import DormantCharging
from repro.system.simulator import TickReport
from repro.system.thresholds import ThresholdPlan, plan_thresholds
from repro.workloads.base import Workload

#: Optional execution governor: maps (stored energy, thresholds, dt)
#: to the fraction of the tick the core may execute (used by DPM).
Governor = Callable[[float, ThresholdPlan, float], float]


class NVPPlatform(DormantCharging):
    """A nonvolatile processor attached to a storage element.

    Args:
        workload: the computation to run.
        storage: a :class:`~repro.storage.capacitor.Capacitor` or
            compatible store.
        config: NVP architecture configuration.
        seed: RNG seed for retention-failure sampling.
        governor: optional DPM governor limiting per-tick execution.
        peripherals: optional peripheral set; its devices are
            re-initialised (energy + stall) on every wake-up and add
            their active power to the run load — the peripheral-state
            tax NVFF backup cannot remove.
        bus: optional observability
            :class:`~repro.obs.events.EventBus`; the platform publishes
            backup/restore lifecycle, wake, power-collapse, margin, and
            threshold events.  The simulator attaches its bus here
            automatically when the platform was built without one.
    """

    def __init__(
        self,
        workload: Workload,
        storage,
        config: Optional[NVPConfig] = None,
        seed: Union[int, np.random.Generator, None] = 0,
        governor: Optional[Governor] = None,
        peripherals=None,
        adaptive_margin: bool = False,
        bus: Optional[EventBus] = None,
    ) -> None:
        self.workload = workload
        self.storage = storage
        self.peripherals = peripherals
        self.adaptive_margin = adaptive_margin
        self.bus = bus
        self.config = config if config is not None else NVPConfig()
        self.rng = (
            seed
            if isinstance(seed, np.random.Generator)
            else np.random.default_rng(seed)
        )
        self.governor = governor
        self.label = self.config.label
        initial_snapshot = workload.snapshot()
        data_words = len(workload.snapshot_words(initial_snapshot))
        self.controller = BackupController(self.config, data_words=data_words)
        self.ledger = ForwardProgressLedger()
        self._last_snapshot = initial_snapshot
        self._state = "off"
        self._stall_s = 0.0
        # Off-time is tracked as a tick count and multiplied out so the
        # per-tick path and fast-forward agree bit-for-bit (a running
        # float sum of dt would drift from ``ticks * dt``).
        self._off_ticks = 0
        self._off_elapsed_s = 0.0
        self._plan: Optional[ThresholdPlan] = None
        # Counters not covered by ledger/controller.
        self.failed_backups = 0
        self.failed_restores = 0
        self.consumed_j = 0.0
        # Adaptive-margin state.
        self._margin = self.config.backup_margin
        self._clean_backups_in_a_row = 0
        self.margin_raises = 0

    # -- planning -----------------------------------------------------------

    def thresholds(self, dt_s: float) -> ThresholdPlan:
        """The (lazily computed) energy-threshold plan.

        Attached peripherals raise the plan: their re-initialisation
        energy is part of every wake-up, and their active power is
        part of the run load.
        """
        if self._plan is None:
            restore_cost = self.controller.restore_energy_j()
            run_power = self.workload.run_power_w()
            if self.peripherals is not None and len(self.peripherals) > 0:
                reinit_energy, _ = self.peripherals.reinit_cost(
                    self.workload.mean_instruction_energy_j(),
                    self.workload.mean_instruction_time_s(),
                )
                restore_cost += reinit_energy
                run_power += self.peripherals.active_power_w
            self._plan = plan_thresholds(
                backup_cost_j=self.controller.worst_case_backup_energy_j(),
                restore_cost_j=restore_cost,
                run_power_w=run_power,
                tick_s=dt_s,
                backup_margin=self._margin,
                run_reserve_ticks=self.config.run_reserve_ticks,
            )
            if self.bus is not None:
                self.bus.emit(
                    ev.THRESHOLD_RECOMPUTE,
                    backup_threshold_j=self._plan.backup_threshold_j,
                    start_threshold_j=self._plan.start_threshold_j,
                    margin=self._margin,
                )
        return self._plan

    # -- adaptive margin control -----------------------------------------

    #: Multiplicative raise after lost work; decay step after a long
    #: clean streak; hard bounds.
    _MARGIN_RAISE = 1.5
    _MARGIN_DECAY = 0.9
    _MARGIN_MAX = 16.0
    _CLEAN_STREAK = 50

    def _margin_feedback(self, lost_work: bool) -> None:
        """Closed-loop margin control (enabled via ``adaptive_margin``).

        The backup margin exists to absorb run-power estimation error
        (see the F13 ablation); instead of guessing it, raise it
        multiplicatively whenever volatile work is lost and decay it
        slowly after long clean streaks, never dropping below the
        configured value.
        """
        if not self.adaptive_margin:
            return
        if lost_work:
            new_margin = min(self._MARGIN_MAX, self._margin * self._MARGIN_RAISE)
            if new_margin != self._margin:
                if self.bus is not None:
                    self.bus.emit(
                        ev.MARGIN_RAISE, old=self._margin, new=new_margin
                    )
                self._margin = new_margin
                self.margin_raises += 1
                self._plan = None  # re-plan with the new reserve
            self._clean_backups_in_a_row = 0
            return
        self._clean_backups_in_a_row += 1
        if (
            self._clean_backups_in_a_row >= self._CLEAN_STREAK
            and self._margin > self.config.backup_margin
        ):
            new_margin = max(
                self.config.backup_margin, self._margin * self._MARGIN_DECAY
            )
            if self.bus is not None:
                self.bus.emit(ev.MARGIN_DECAY, old=self._margin, new=new_margin)
            self._margin = new_margin
            self._clean_backups_in_a_row = 0
            self._plan = None

    @property
    def finished(self) -> bool:
        """True when the workload has completed."""
        return self.workload.finished

    # -- the state machine -----------------------------------------------
    # ``tick`` and ``fast_forward`` come from DormantCharging; the NVP
    # names its off state, its wake target and its powered-on tick.

    def off_state(self) -> Optional[str]:
        """``"off"`` while powered off, ``None`` while powered on."""
        return "off" if self._state == "off" else None

    def wake_target_j(self, dt_s: float) -> float:
        """The start threshold: stored energy that triggers a wake."""
        return self.thresholds(dt_s).start_threshold_j

    def count_dormant_ticks(self, ticks: int, dt_s: float) -> None:
        """Advance the retention-age clock by ``ticks`` off ticks."""
        self._off_ticks += ticks
        self._off_elapsed_s = self._off_ticks * dt_s

    def _run_tick(self, p_in_w: float, dt_s: float) -> TickReport:
        """One powered-on tick: back up at the threshold, else execute."""
        plan = self.thresholds(dt_s)
        if self.storage.energy_j <= plan.backup_threshold_j:
            return self._power_down_with_backup(p_in_w, dt_s)

        fraction = 1.0
        if self.governor is not None:
            fraction = self.governor(self.storage.energy_j, plan, dt_s)
            fraction = min(1.0, max(0.0, fraction))
        usable = dt_s * fraction
        exec_budget = max(0.0, usable - self._stall_s)
        self._stall_s = max(0.0, self._stall_s - usable)

        advance = self.workload.advance(exec_budget)
        self.ledger.execute(advance.instructions)
        load_w = advance.energy_j / dt_s
        if self.peripherals is not None:
            load_w += self.peripherals.active_power_w
        step = self.storage.step(p_in_w, load_w, dt_s)
        self.consumed_j += step.delivered_j
        if step.deficit:
            # Power collapsed before a backup could run: volatile work
            # (since the last backup) is lost.
            if self.bus is not None:
                self.bus.emit(
                    ev.POWER_COLLAPSE, lost_instructions=self.ledger.volatile
                )
            self.ledger.rollback()
            self.workload.clear_volatile()
            self._margin_feedback(lost_work=True)
            self._go_off()
            return TickReport("run", advance.instructions)
        return TickReport("run", advance.instructions)

    # -- bulk advance --------------------------------------------------------

    def exact_batch(self, p_in_w, start, stop, dt_s):
        """Advance through predictable powered-on ``"run"`` ticks in bulk.

        The active-path sibling of ``fast_forward`` (see
        :mod:`repro.system.exactkernel`): while powered on with no
        governor and no peripherals, the batched kernel executes the
        run loop bit-for-bit and stops before the first event tick
        (backup-threshold crossing, power deficit, workload
        completion), which the scalar path then executes.

        Returns ``[("run", ticks)]`` covering the consumed ticks, or
        ``None`` when this state cannot be batched (the simulator
        falls back to exact ticking until the next state transition).
        """
        if (
            self._state != "on"
            or self.governor is not None
            or (self.peripherals is not None and len(self.peripherals) > 0)
        ):
            return None
        return exactkernel.run_batch(
            self, p_in_w, start, stop, dt_s,
            lambda: {"stop_energy_j": self.thresholds(dt_s).backup_threshold_j},
        )

    # -- internal transitions ------------------------------------------------

    def _wake(self) -> TickReport:
        """Attempt to power up: restore (or cold-start) and go on."""
        bus = self.bus
        cold = not self.controller.has_image
        if self.controller.has_image:
            needed = self.controller.restore_energy_j()
            if bus is not None:
                bus.emit(ev.RESTORE_START, energy_j=needed)
            drawn = self.storage.draw(needed)
            self.consumed_j += drawn
            if drawn < needed:
                self.failed_restores += 1
                if bus is not None:
                    bus.emit(ev.RESTORE_FAIL, needed_j=needed, drawn_j=drawn)
                return TickReport("off")
            flips = self.controller.age(self._off_elapsed_s, self.rng)
            words, _energy, time_s = self.controller.read_image()
            if self.config.approx_registers is not None:
                # Only AC-marked registers accept relaxed values; the
                # rest are restored exactly (their cells are protected
                # by the controller's precise path in real designs).
                exact = self.workload.snapshot_words(self._last_snapshot)
                allowed = set(self.config.approx_registers)
                words = [
                    word if index in allowed else exact_word
                    for index, (word, exact_word) in enumerate(zip(words, exact))
                ]
            snapshot = self.workload.apply_snapshot_words(self._last_snapshot, words)
            self.workload.restore(snapshot)
            self._stall_s += time_s
            if bus is not None:
                bus.emit(
                    ev.RESTORE_COMMIT,
                    time_s=time_s,
                    flipped_bits=flips,
                    off_s=self._off_elapsed_s,
                )
            del flips  # already recorded in controller stats
        else:
            # Cold start: nothing to restore, begin the current unit anew.
            self.workload.restart_unit()
            self._stall_s += self.config.technology.wakeup_time_s
        if self.peripherals is not None and len(self.peripherals) > 0:
            # Peripherals lost their configuration during the outage.
            energy, time_s = self.peripherals.reinit_cost(
                self.workload.mean_instruction_energy_j(),
                self.workload.mean_instruction_time_s(),
            )
            drawn = self.storage.draw(energy)
            self.consumed_j += drawn
            self._stall_s += time_s
            self.peripherals.record_reinit()
        self._state = "on"
        self._off_ticks = 0
        self._off_elapsed_s = 0.0
        if bus is not None:
            bus.emit(ev.WAKE, cold=cold, stall_s=self._stall_s)
        return TickReport("restore")

    def _power_down_with_backup(self, p_in_w: float, dt_s: float) -> TickReport:
        """Back up state, then power down for the rest of the tick."""
        bus = self.bus
        snapshot = self.workload.snapshot()
        words = self.workload.snapshot_words(snapshot)
        plan = self.controller.plan_backup(words)
        if bus is not None:
            bus.emit(
                ev.BACKUP_START,
                energy_j=plan.energy_j,
                bits=plan.bits_written,
                time_s=plan.time_s,
            )
        drawn = self.storage.draw(plan.energy_j)
        self.consumed_j += drawn
        if drawn < plan.energy_j:
            # Backup ran out of energy mid-way; the double-buffered
            # previous image survives, but volatile work is lost.
            self.failed_backups += 1
            if bus is not None:
                bus.emit(
                    ev.BACKUP_FAIL,
                    needed_j=plan.energy_j,
                    drawn_j=drawn,
                    lost_instructions=self.ledger.volatile,
                )
            self.ledger.rollback()
            self._margin_feedback(lost_work=True)
        else:
            self.controller.commit_backup(words, plan)
            self.ledger.commit()
            self._last_snapshot = snapshot
            if bus is not None:
                bus.emit(
                    ev.BACKUP_COMMIT,
                    energy_j=plan.energy_j,
                    bits=plan.bits_written,
                    time_s=plan.time_s,
                )
            self._margin_feedback(lost_work=False)
        self.workload.clear_volatile()
        self._go_off()
        self.storage.step(p_in_w, 0.0, dt_s)
        return TickReport("backup")

    def _go_off(self) -> None:
        self._state = "off"
        self._off_ticks = 0
        self._off_elapsed_s = 0.0
        self._stall_s = 0.0

    # -- reporting ----------------------------------------------------------

    def stats(self) -> Dict[str, float]:
        """Counter snapshot for :class:`~repro.system.result.SimulationResult`."""
        return {
            "forward_progress": self.ledger.persistent,
            "total_executed": self.ledger.total_executed,
            "lost_instructions": self.ledger.lost,
            "units_completed": self.workload.units_completed,
            "backups": self.controller.backup_count,
            "restores": self.controller.restore_count,
            "failed_backups": self.failed_backups,
            "failed_restores": self.failed_restores,
            "rollbacks": self.ledger.rollbacks,
            "consumed_j": self.consumed_j,
            "backup_energy_j": self.controller.total_backup_energy_j,
            "restore_energy_j": self.controller.total_restore_energy_j,
            "bits_written": self.controller.total_bits_written,
            "flipped_bits": self.controller.total_flipped_bits,
            "ecc_corrected": self.controller.ecc_corrected,
            "ecc_detected": self.controller.ecc_detected,
            "volatile_at_end": self.ledger.volatile,
            "peripheral_reinits": (
                self.peripherals.reinits if self.peripherals is not None else 0
            ),
            "margin_raises": self.margin_raises,
            "final_margin": self._margin,
        }
