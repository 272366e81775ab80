"""Oracle platform: uninterrupted execution (upper bound).

Executes the workload continuously as if powered by an ideal supply
at all times.  Used to normalise forward-progress results and to
compute the best-case frame rate of a kernel at a given clock.
"""

from __future__ import annotations

from typing import Dict

from repro.core.progress import ForwardProgressLedger
from repro.system import exactkernel
from repro.system.simulator import TickReport
from repro.workloads.base import Workload


class OraclePlatform:
    """Continuously powered reference platform."""

    def __init__(self, workload: Workload, label: str = "oracle") -> None:
        self.workload = workload
        self.label = label
        self.ledger = ForwardProgressLedger()
        self.consumed_j = 0.0

    @property
    def finished(self) -> bool:
        """True when the workload has completed."""
        return self.workload.finished

    def tick(self, p_in_w: float, dt_s: float) -> TickReport:
        """Execute for the full tick regardless of harvested power."""
        del p_in_w
        if self.workload.finished:
            return TickReport("done")
        advance = self.workload.advance(dt_s)
        self.ledger.execute(advance.instructions)
        self.ledger.commit()
        self.consumed_j += advance.energy_j
        return TickReport("run", advance.instructions)

    def fast_forward(self, p_in_w, start, stop, dt_s):
        """Bulk-advance: a finished oracle's ticks are pure no-ops."""
        del p_in_w, dt_s
        if self.workload.finished and stop > start:
            return [("done", stop - start)]
        return None

    def exact_batch(self, p_in_w, start, stop, dt_s):
        """Batch active ticks: the vectorized exact-kernel path.

        The oracle has no storage element, so between workload
        completions every tick is pure accumulator math — the batched
        kernel integrates consumed energy with a cumulative sum and
        bulk-commits the ledger, bit-identical to per-tick execution
        (see :mod:`repro.system.exactkernel`).  It is always powered
        and never stops for a threshold; returns ``[("run", ticks)]``
        or ``None``.
        """
        return exactkernel.run_batch(self, p_in_w, start, stop, dt_s)

    def stats(self) -> Dict[str, float]:
        """Counter snapshot for the simulation result."""
        return {
            "forward_progress": self.ledger.persistent,
            "total_executed": self.ledger.total_executed,
            "lost_instructions": 0,
            "units_completed": self.workload.units_completed,
            "backups": 0,
            "restores": 0,
            "failed_backups": 0,
            "failed_restores": 0,
            "rollbacks": 0,
            "consumed_j": self.consumed_j,
            "backup_energy_j": 0.0,
            "restore_energy_j": 0.0,
            "volatile_at_end": self.ledger.volatile,
        }
