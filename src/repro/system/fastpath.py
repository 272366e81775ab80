"""The dormant half of every energy-buffered platform, written once.

Every energy-buffered platform runs the same dormant/wake cycle: while
powered off it charges at zero load and, on the tick whose charge
reaches its wake target, attempts to wake; once its workload is
finished it only keeps integrating the trace (``"done"``).  The NVP
(:mod:`repro.core.nvp`) and the checkpointing baseline
(:mod:`repro.baselines.checkpoint`) wake at their start threshold,
wait-and-compute (:mod:`repro.baselines.waitcompute`) boots at its
unit-energy target.  :class:`DormantCharging` runs that cycle, both
tick by tick and in bulk; a platform only names its off state, wake
target, wake and powered-on tick.

The fleet kernel (:mod:`repro.fleet.kernel`) parks a dormant device
from the same ``dormant_state()`` and ``wake_target_j()``: its
charge step stops before the tick that reaches the target,
and the device's own ``tick()`` then runs that tick.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.storage.capacitor import Capacitor
from repro.system.simulator import TickReport


class DormantCharging:
    """``tick`` and ``fast_forward`` of an energy-buffered platform.

    "Dormant" is powered off and charging, or finished and idling:
    either way the storage integrates the trace at zero load.  The
    host class provides ``workload`` and ``storage`` and implements:

    * ``off_state()``: the state name while powered off (``"off"`` or
      ``"charge"``), ``None`` while powered on;
    * ``wake_target_j(dt_s)``: the stored energy that triggers a wake
      attempt (never read once the workload is finished);
    * ``_wake()``: the wake attempt, returning its :class:`TickReport`;
    * ``_run_tick(p_in_w, dt_s)``: one powered-on tick;
    * optionally ``count_dormant_ticks(ticks, dt_s)``, called for
      every consumed off tick (the NVP's retention-age clock).
    """

    def dormant_state(self) -> Optional[str]:
        """``"done"`` once the workload is finished, else the off state."""
        if self.workload.finished:
            return "done"
        return self.off_state()

    def count_dormant_ticks(self, ticks: int, dt_s: float) -> None:
        """Account ``ticks`` consumed off ticks (nothing by default)."""

    def tick(self, p_in_w: float, dt_s: float) -> TickReport:
        """Advance one tick; returns what the platform did."""
        state = self.dormant_state()
        if state is None:
            return self._run_tick(p_in_w, dt_s)
        self.storage.step(p_in_w, 0.0, dt_s)
        if state == "done":
            return TickReport("done")
        self.count_dormant_ticks(1, dt_s)
        if self.storage.energy_j >= self.wake_target_j(dt_s):
            return self._wake()
        return TickReport(state)

    def fast_forward(
        self, p_in_w, start: int, stop: int, dt_s: float
    ) -> Optional[List[Tuple[str, int]]]:
        """Advance through dormant ticks in bulk.

        The storage element's ``charge_many`` repeats :meth:`tick`'s
        zero-load step bit for bit and stops before the tick that
        reaches the wake target, so the wake attempt runs in
        :meth:`tick` in every engine.  The target is read once, at
        ``start``: a platform emits from inside this call only at
        that tick.

        Args:
            p_in_w: per-tick DC input power, indexable (the simulator
                passes a plain list for speed).
            start: index of the current tick.
            stop: one past the last tick that may be consumed.
            dt_s: tick duration.

        Returns:
            ``[(state, ticks)]`` covering the consumed ticks — or
            ``None`` when powered on, when the storage is not a
            :class:`~repro.storage.capacitor.Capacitor` (a tiered
            store or a front end), or when the first tick already
            reaches the target (the simulator then ticks exactly).
        """
        state = self.dormant_state()
        storage = self.storage
        if state is None or not isinstance(storage, Capacitor):
            return None
        target = None if state == "done" else self.wake_target_j(dt_s)
        consumed, _ = storage.charge_many(p_in_w, start, stop, dt_s, target)
        if not consumed:
            return None
        if state != "done":
            self.count_dormant_ticks(consumed, dt_s)
        return [(state, consumed)]
