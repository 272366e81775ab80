"""Idealised energy store: no leakage, perfect conversion.

Used as a reference to separate architectural effects (backup/restore
overheads) from storage losses, and as the upper bound in the
capacitor-sizing experiment.

The ideal store is a :class:`~repro.storage.capacitor.Capacitor` whose
parameters turn every loss into an exact float identity: ``C = 1``, a
flat unit-efficiency curve (``x * 1.0 == x``, ``x - x == 0.0``),
infinite leak resistance (the leak is ``0.0``) and no minimum charge
current.  So the capacitor's one op chain — ``step``, ``draw``,
``charge_many`` and the ``chain()`` constants the fleet and batch
kernels read — performs the loss-free arithmetic (charge ``p * dt``,
clip at capacity, draw the load) bit for bit on finite inputs.  Being
a ``Capacitor``, it takes every bulk path.
"""

from __future__ import annotations

import math

from repro.storage.capacitor import Capacitor, ChargeEfficiency

#: Conversion that loses nothing at any voltage.
IDEAL_EFFICIENCY = ChargeEfficiency(
    eta_peak=1.0, eta_floor=1.0, v_opt_v=0.0, v_span_v=1.0
)


class IdealStorage(Capacitor):
    """Loss-free, efficiency-1.0 energy store with a capacity bound.

    Args:
        capacity_j: capacity, joules (kept exactly as given).
        initial_j: starting energy, joules.
    """

    def __init__(self, capacity_j: float, initial_j: float = 0.0) -> None:
        if capacity_j <= 0:
            raise ValueError("capacity must be positive")
        if not 0 <= initial_j <= capacity_j:
            raise ValueError("initial energy outside [0, capacity]")
        super().__init__(
            capacitance_f=1.0,
            v_max_v=1.0,
            leak_resistance_ohm=math.inf,
            efficiency=IDEAL_EFFICIENCY,
        )
        self.capacity_j = capacity_j
        self._energy_j = initial_j

    @property
    def voltage_v(self) -> float:
        """Nominal rail voltage (constant 1.0 for the ideal store)."""
        return 1.0

    def set_energy(self, energy_j: float) -> None:
        """Force the stored energy (test/benchmark setup helper)."""
        if not 0 <= energy_j <= self.capacity_j:
            raise ValueError("energy outside [0, capacity]")
        self._energy_j = energy_j

    def __repr__(self) -> str:
        return f"IdealStorage(E={self._energy_j * 1e6:.3g}/{self.capacity_j * 1e6:.3g}uJ)"
