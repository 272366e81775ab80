"""Struct-of-arrays state for the batched fleet kernel.

One :class:`FleetArrays` holds the storage state of *every* device in
the fleet as parallel float64 numpy arrays, master-indexed by device
row.  The heart of the subsystem is :meth:`FleetArrays.charge_tick`:
one vectorized zero-load charge tick that evaluates, elementwise, the
exact per-tick float chain of
:func:`repro.native.reference.chain_step`, the storage op chain
:meth:`repro.storage.capacitor.Capacitor.charge_many` runs — so a
dormant device advanced through the arrays ends up with bit-for-bit
the same stored energy and cumulative ledger as the scalar loop.  A
row's constants are its capacitor's
:meth:`~repro.storage.capacitor.Capacitor.chain`, the tuple the chain
reads, so only a device on a ``Capacitor`` (or an ``IdealStorage``)
is ever parked on its row.

Why this is exact and not merely close:

* numpy float64 elementwise ops are the same IEEE-754 operations the
  scalar interpreter performs, and the chain is written op for op in
  ``chain_step``'s order (``(2.0 * e) / C`` before the sqrt, the
  headroom clip before the leak, ``((v * v) / R) * dt``);
* scalar branches become masks applied in branch order: the
  blocked/zero-input override comes *after* the overflow adjustment,
  exactly as the scalar ``if``/``else`` structure skips the overflow
  math for blocked ticks;
* ``chain_step``'s flat-efficiency hoist (``eta = eta_peak`` when
  the curve is flat) equals ``np.maximum(eta_floor, eta_peak *
  (1 - offset²))`` because correctly-rounded multiplication is
  monotone, so the parabola never exceeds its peak;
* an :class:`~repro.storage.ideal.IdealStorage` is a capacitor with
  identity parameters (``C = 1``, flat ``eta = 1``, infinite leak
  resistance): every extra op is an exact float identity (``x * 1.0``,
  ``x + 0.0``).

Rows whose device is *not* currently dormant stay allocated but
``alive``-masked out: their target is ``inf`` (no spurious crossings),
their power gather is redirected to index 0 (no out-of-bounds), and
their state is reloaded from the device's storage object when they
next go dormant — so garbage evolution on dead rows is never read.
"""

from __future__ import annotations

from typing import Optional

import numpy as np


class FleetArrays:
    """Master struct-of-arrays state for ``n`` device rows.

    Attributes:
        dt_s: shared tick duration.
        energy: stored energy per row, joules.
        target: wake threshold per row (``inf`` disarms a row).
        base: row's offset into the concatenated fleet power array.
        pending: dormant ticks consumed since the row's last flush.
        alive: mask of rows currently advanced by :meth:`charge_tick`.
    """

    def __init__(self, n: int, dt_s: float) -> None:
        if n <= 0:
            raise ValueError("fleet needs at least one device")
        if dt_s <= 0:
            raise ValueError("dt must be positive")
        self.n = n
        self.dt_s = dt_s
        # Benign defaults (C=1, flat eta=1, no leak, no min current,
        # infinite capacity/target) keep dead and non-capacitor rows
        # NaN-free through the vector chain.
        self.energy = np.zeros(n)
        self.capacitance = np.ones(n)
        self.capacity = np.full(n, np.inf)
        self.leak_ohm = np.full(n, np.inf)
        self.min_current = np.zeros(n)
        self.eta_peak = np.ones(n)
        self.eta_floor = np.ones(n)
        self.v_opt = np.zeros(n)
        self.v_span = np.ones(n)
        self.total_charged = np.zeros(n)
        self.total_leaked = np.zeros(n)
        self.total_wasted = np.zeros(n)
        self.target = np.full(n, np.inf)
        self.base = np.zeros(n, dtype=np.int64)
        self.pending = np.zeros(n, dtype=np.int64)
        self.alive = np.zeros(n, dtype=bool)

    # -- per-row maintenance ----------------------------------------------

    def set_params(self, row: int, storage, base: int) -> None:
        """Install a capacitor's ``chain()`` constants and trace base."""
        (self.capacitance[row], self.capacity[row], self.leak_ohm[row],
         self.min_current[row], self.eta_peak[row], self.eta_floor[row],
         self.v_opt[row], self.v_span[row]) = storage.chain()
        self.base[row] = base

    def load_row(self, row: int, storage, target_j: float) -> None:
        """Sync a row from its storage object and arm its target."""
        energy, charged, leaked, wasted = storage.soa_state()
        self.energy[row] = energy
        self.total_charged[row] = charged
        self.total_leaked[row] = leaked
        self.total_wasted[row] = wasted
        self.target[row] = target_j
        self.pending[row] = 0
        self.alive[row] = True

    def store_row(self, row: int, storage) -> None:
        """Write a row's evolved state back into its storage object."""
        storage.soa_restore(
            float(self.energy[row]),
            float(self.total_charged[row]),
            float(self.total_leaked[row]),
            float(self.total_wasted[row]),
        )

    def retire_row(self, row: int) -> None:
        """Take a row out of the vectorized path (device woke/ended)."""
        self.alive[row] = False
        self.target[row] = np.inf

    def gather_power(self, p_all: np.ndarray, tick: int) -> np.ndarray:
        """Per-row input power for ``tick`` (dead rows read index 0)."""
        return p_all[np.where(self.alive, self.base + tick, 0)]

    def alive_energy(self) -> np.ndarray:
        """Stored energy of the rows currently on the vectorized path.

        A read-only telemetry reduction: dormant rows hold the live
        storage state here (the storage objects are only re-synced on
        flush), so population energy statistics must read this view,
        not the per-device objects.  Dead rows evolve garbage and are
        masked out.
        """
        return self.energy[self.alive]

    # -- the vectorized charge step ----------------------------------------

    def charge_tick(self, p: np.ndarray) -> Optional[np.ndarray]:
        """One zero-load charge tick across every row.

        Evaluates the per-tick float chain :meth:`Capacitor.charge_many`
        runs elementwise (see the module docstring for the bit-exactness
        argument) and returns the rows whose stored energy would reach
        their target on this tick, or ``None`` when no row would.
        Like :meth:`Capacitor.charge_many`, those rows discard the
        tick: their energy, ledgers and ``pending`` keep their bits,
        and the device's own ``tick()`` runs it.  Dead rows evolve
        garbage that is never read and, with ``target = inf``, never
        cross.
        """
        dt = self.dt_s
        e = self.energy
        v = np.sqrt(2.0 * e / self.capacitance)
        input_energy = p * dt
        blocked = (
            (self.min_current > 0.0) & (v > 0.0)
            & (p < self.min_current * v)
        )
        offset = (v - self.v_opt) / self.v_span
        eta = np.maximum(
            self.eta_floor, self.eta_peak * (1.0 - offset * offset)
        )
        charged = input_energy * eta
        wasted = input_energy - charged
        headroom = self.capacity - e
        over = charged > headroom
        wasted = np.where(over, wasted + (charged - headroom), wasted)
        charged = np.where(over, headroom, charged)
        # The blocked/zero-input override comes last, mirroring the
        # scalar branch that skips the whole charge block.
        zero = blocked | (input_energy == 0.0)
        charged = np.where(zero, 0.0, charged)
        wasted = np.where(zero, input_energy, wasted)
        e = e + charged
        v = np.sqrt(2.0 * e / self.capacitance)
        leaked = v * v / self.leak_ohm * dt
        leaked = np.where(leaked > e, e, leaked)
        e -= leaked
        crossed = e >= self.target
        rows = np.flatnonzero(crossed) if crossed.any() else None
        if rows is not None:
            # Discard the candidate tick on these rows; adding 0.0
            # keeps the bits of a ledger, which is never negative.
            e[rows] = self.energy[rows]
            charged[rows] = leaked[rows] = wasted[rows] = 0.0
            self.pending -= crossed
        self.energy = e
        self.total_charged += charged
        self.total_leaked += leaked
        self.total_wasted += wasted
        self.pending += 1
        return rows
