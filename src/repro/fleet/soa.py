"""Struct-of-arrays state for the batched fleet kernel.

One :class:`FleetArrays` holds the storage state of *every* device in
the fleet, master-indexed by device row: a row's constants are its
capacitor's :meth:`~repro.storage.capacitor.Capacitor.chain` and its
state :meth:`~repro.storage.capacitor.Capacitor.soa_state`'s
``(energy, charged, leaked, wasted)``, each packed as one field-major
float64 block (``(8, n)`` and ``(4, n)``: row ``i`` is column ``i``,
so each field is a contiguous vector for the numpy twin).  Only a
device on a ``Capacitor`` (or an ``IdealStorage``) is ever parked on
its row.

:meth:`FleetArrays.charge_tick` advances every alive row by one
zero-load tick through the native kernels' ``charge_rows``
(:func:`repro.native.kernels`): the C op chain run row by row, or its
numpy twin :func:`repro.native.reference.charge_rows` where no
compiler works.  Both run :func:`repro.native.reference.chain_step`'s
ops in its order, the chain :meth:`Capacitor.charge_many` runs, so a
dormant device advanced through the arrays ends up with bit-for-bit
the same stored energy and cumulative ledger as the scalar loop.  An
:class:`~repro.storage.ideal.IdealStorage` is a capacitor with
identity parameters (``C = 1``, flat ``eta = 1``, infinite leak
resistance): every extra op is an exact float identity.

Rows whose device is *not* currently dormant stay allocated but are
``alive``-masked out: the kernel leaves their state alone, their
power gather is redirected to index 0 (no out-of-bounds), and their
state is reloaded from the device's storage object when they next go
dormant.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro import native

#: The chain of a row with no capacitor: ``C = 1``, no capacity
#: limit, no leak, no minimum current, flat ``eta = 1``.  It keeps
#: the numpy twin's arithmetic on rows it masks out NaN-free.
_IDENTITY_CHAIN = (1.0, np.inf, np.inf, 0.0, 1.0, 1.0, 0.0, 1.0)


class FleetArrays:
    """Master struct-of-arrays state for ``n`` device rows.

    Attributes:
        dt_s: shared tick duration.
        chain: ``(8, n)`` op-chain constants, one ``chain()`` per row.
        state: ``(4, n)`` stored energy and three ledgers per row.
        target: wake threshold per row (``inf`` for a finished device).
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
        self.chain = np.empty((8, n))
        self.chain.T[:] = _IDENTITY_CHAIN
        self.state = np.zeros((4, n))
        self.target = np.full(n, np.inf)
        self.base = np.zeros(n, dtype=np.int64)
        self.pending = np.zeros(n, dtype=np.int64)
        self.alive = np.zeros(n, dtype=bool)

    # -- per-row maintenance ----------------------------------------------

    def set_params(self, row: int, storage, base: int) -> None:
        """Install a capacitor's ``chain()`` constants and trace base."""
        self.chain[:, row] = storage.chain()
        self.base[row] = base

    def load_row(self, row: int, storage, target_j: float) -> None:
        """Sync a row from its storage object and arm its target."""
        self.state[:, row] = storage.soa_state()
        self.target[row] = target_j
        self.pending[row] = 0
        self.alive[row] = True

    def store_row(self, row: int, storage) -> None:
        """Write a row's evolved state back into its storage object."""
        storage.soa_restore(*self.state[:, row].tolist())

    def retire_row(self, row: int) -> None:
        """Take a row out of the charge step (device woke/ended)."""
        self.alive[row] = False

    def gather_power(self, p_all: np.ndarray, tick: int) -> np.ndarray:
        """Per-row input power for ``tick`` (dead rows read index 0)."""
        return p_all[np.where(self.alive, self.base + tick, 0)]

    def alive_energy(self) -> np.ndarray:
        """Stored energy of the rows currently parked.

        A read-only telemetry reduction: dormant rows hold the live
        storage state here (the storage objects are only re-synced on
        flush), so population energy statistics must read this view,
        not the per-device objects.
        """
        return self.state[0, self.alive]

    # -- the charge step ---------------------------------------------------

    def charge_tick(self, p: np.ndarray) -> Optional[List[int]]:
        """One zero-load charge tick of every alive row; ``p`` is the
        per-row input power (:meth:`gather_power`).

        Returns the rows whose stored energy would reach their target
        on this tick, or ``None`` when no row would.  Like
        :meth:`Capacitor.charge_many`, those rows discard the tick:
        their state and ``pending`` keep their bits, and the device's
        own ``tick()`` runs it.  Every other alive row commits the
        tick and counts it in ``pending``.
        """
        return native.kernels().charge_rows(
            p, self.dt_s, self.chain, self.alive, self.target, self.state,
            self.pending,
        )
