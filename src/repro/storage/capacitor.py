"""Storage-capacitor model.

Energy is the primary state variable; voltage follows from
``E = C V² / 2``.  The model captures the three loss mechanisms that
penalise capacitor-centric ("wait-and-compute") harvesting systems:

* **conversion efficiency** that depends on the capacitor voltage —
  charging far from the converter's optimal point wastes energy, which
  is what energy-band power management (TECS'17) exploits;
* **leakage**, modelled as a parallel resistance;
* **minimum charging current** — real charger ICs cannot harvest into
  the capacitor below a minimum current (e.g. ~20 µA for cap-XX
  GZ-series supercapacitors).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro import native
from repro.native.reference import chain_step


@dataclass(frozen=True)
class ChargeEfficiency:
    """Voltage-dependent conversion-efficiency curve.

    ``eta(v) = max(eta_floor, eta_peak * (1 - ((v - v_opt)/v_span)²))``

    Attributes:
        eta_peak: efficiency at the optimal capacitor voltage.
        eta_floor: lower bound far from the optimum.
        v_opt_v: optimal capacitor voltage.
        v_span_v: voltage distance at which the parabola reaches zero
            (before flooring).
    """

    eta_peak: float = 0.90
    eta_floor: float = 0.40
    v_opt_v: float = 2.0
    v_span_v: float = 2.0

    def __post_init__(self) -> None:
        if not 0 < self.eta_peak <= 1:
            raise ValueError("eta_peak must be in (0, 1]")
        if not 0 <= self.eta_floor <= self.eta_peak:
            raise ValueError("eta_floor must be in [0, eta_peak]")
        if self.v_span_v <= 0:
            raise ValueError("v_span must be positive")

    def __call__(self, voltage_v: float) -> float:
        if voltage_v < 0:
            raise ValueError("voltage cannot be negative")
        offset = (voltage_v - self.v_opt_v) / self.v_span_v
        return max(self.eta_floor, self.eta_peak * (1.0 - offset * offset))


#: Flat-efficiency curve for experiments isolating other effects.
FLAT_EFFICIENCY = ChargeEfficiency(
    eta_peak=0.9, eta_floor=0.9, v_opt_v=0.0, v_span_v=1.0
)


@dataclass(frozen=True)
class StorageStep:
    """Outcome of one storage tick.

    Attributes:
        delivered_j: energy actually delivered to the load.
        charged_j: energy stored into the capacitor (after efficiency).
        leaked_j: energy lost to leakage.
        wasted_j: harvested energy that could not be used (conversion
            loss, overflow when full, or below minimum charge current).
        deficit: True if the load demanded more than could be supplied
            (a brownout tick).
    """

    delivered_j: float
    charged_j: float
    leaked_j: float
    wasted_j: float
    deficit: bool


class Capacitor:
    """A storage capacitor with losses.

    Args:
        capacitance_f: capacitance in farads.
        v_max_v: maximum (rated) voltage.
        v_initial_v: starting voltage.
        leak_resistance_ohm: parallel leakage resistance (``inf`` for a
            leak-free capacitor).
        efficiency: charging-efficiency curve.
        min_charge_current_a: below this input current the charger
            cannot harvest (input energy is wasted).
    """

    def __init__(
        self,
        capacitance_f: float,
        v_max_v: float = 3.3,
        v_initial_v: float = 0.0,
        leak_resistance_ohm: float = 50e6,
        efficiency: ChargeEfficiency = FLAT_EFFICIENCY,
        min_charge_current_a: float = 0.0,
    ) -> None:
        if capacitance_f <= 0:
            raise ValueError("capacitance must be positive")
        if v_max_v <= 0:
            raise ValueError("maximum voltage must be positive")
        if not 0 <= v_initial_v <= v_max_v:
            raise ValueError("initial voltage outside [0, v_max]")
        if leak_resistance_ohm <= 0:
            raise ValueError("leak resistance must be positive")
        if min_charge_current_a < 0:
            raise ValueError("minimum charge current cannot be negative")
        self.capacitance_f = capacitance_f
        self.v_max_v = v_max_v
        self.leak_resistance_ohm = leak_resistance_ohm
        self.efficiency = efficiency
        self.min_charge_current_a = min_charge_current_a
        #: Capacity at rated voltage, joules: the bound the op chain
        #: clips against.
        self.capacity_j = 0.5 * capacitance_f * v_max_v * v_max_v
        self._energy_j = 0.5 * capacitance_f * v_initial_v * v_initial_v
        # Cumulative accounting.
        self.total_charged_j = 0.0
        self.total_delivered_j = 0.0
        self.total_leaked_j = 0.0
        self.total_wasted_j = 0.0

    # -- state -------------------------------------------------------------

    @property
    def energy_j(self) -> float:
        """Stored energy, joules."""
        return self._energy_j

    @property
    def energy_max_j(self) -> float:
        """Capacity, joules."""
        return self.capacity_j

    @property
    def voltage_v(self) -> float:
        """Terminal voltage implied by the stored energy."""
        return math.sqrt(2.0 * self._energy_j / self.capacitance_f)

    @property
    def state_of_charge(self) -> float:
        """Stored energy as a fraction of capacity."""
        return self._energy_j / self.energy_max_j

    def set_energy(self, energy_j: float) -> None:
        """Force the stored energy (test/benchmark setup helper)."""
        if not 0 <= energy_j <= self.energy_max_j + 1e-15:
            raise ValueError("energy outside [0, capacity]")
        self._energy_j = min(energy_j, self.energy_max_j)

    # -- dynamics ------------------------------------------------------------

    def step(self, p_in_w: float, p_load_w: float, dt_s: float) -> StorageStep:
        """Advance one tick: charge from the harvester, leak, feed the load.

        Ordering within a tick: input charging first, then leakage
        (the shared op chain, :func:`repro.native.reference.chain_step`),
        then load draw.  If the load cannot be fully supplied the step
        reports ``deficit=True`` and delivers what was available.
        """
        if p_in_w < 0 or p_load_w < 0:
            raise ValueError("powers cannot be negative")
        if dt_s <= 0:
            raise ValueError("dt must be positive")

        energy, charged, leaked, wasted = chain_step(
            self.chain(), self._energy_j, p_in_w, dt_s
        )
        demand = p_load_w * dt_s
        delivered = min(demand, energy)
        self._energy_j = energy - delivered
        deficit = delivered < demand - 1e-18

        self.total_charged_j += charged
        self.total_delivered_j += delivered
        self.total_leaked_j += leaked
        self.total_wasted_j += wasted
        return StorageStep(
            delivered_j=delivered,
            charged_j=charged,
            leaked_j=leaked,
            wasted_j=wasted,
            deficit=deficit,
        )

    def draw(self, energy_j: float) -> float:
        """Withdraw up to ``energy_j`` immediately; returns the amount drawn."""
        if energy_j < 0:
            raise ValueError("cannot draw negative energy")
        drawn = min(energy_j, self._energy_j)
        self._energy_j -= drawn
        self.total_delivered_j += drawn
        return drawn

    def charge_many(
        self,
        p_in_w,
        start: int,
        stop: int,
        dt_s: float,
        stop_energy_j: Optional[float] = None,
    ):
        """Bulk zero-load charging: the fast-forward primitive.

        Steps through ``p_in_w[start:stop]`` exactly as repeated
        ``step(p, 0.0, dt_s)`` calls would, in one call of the native
        kernel (:func:`repro.native.kernels`): the same op chain, so
        the stored energy and the cumulative ledger stay bit-identical
        to the per-tick path.

        Stops *before* the first tick on which the stored energy
        would reach ``stop_energy_j``: that tick's candidate values are
        discarded, so the platform's own ``tick()`` runs it (charge,
        threshold test, then the wake).  Returns
        ``(ticks_consumed, crossed)``.
        """
        if dt_s <= 0:
            raise ValueError("dt must be positive")
        target = math.inf if stop_energy_j is None else stop_energy_j
        ticks, crossed, state = native.kernels().charge_many(
            p_in_w, start, stop, dt_s, self.chain(), target, self.soa_state()
        )
        self.soa_restore(*state)
        return ticks, crossed

    # -- bulk-engine access -------------------------------------------------

    def chain(self) -> tuple:
        """The op chain's eight constants, in the order the loops hoist them.

        ``(capacitance_f, capacity_j, leak_ohm, min_current_a, eta_peak,
        eta_floor, v_opt_v, v_span_v)``: the parameter block of the op
        chain (:func:`repro.native.reference.chain_step` and its C
        twin), which :meth:`step`, :meth:`charge_many`, the batched
        storage loops of :mod:`repro.system.exactkernel` and the
        fleet's row kernel (:mod:`repro.fleet.soa`) read.
        """
        curve = self.efficiency
        return (
            self.capacitance_f,
            self.capacity_j,
            self.leak_resistance_ohm,
            self.min_charge_current_a,
            curve.eta_peak,
            curve.eta_floor,
            curve.v_opt_v,
            curve.v_span_v,
        )

    def soa_state(self):
        """``(energy, charged, leaked, wasted)`` for the bulk engines."""
        return (
            self._energy_j,
            self.total_charged_j,
            self.total_leaked_j,
            self.total_wasted_j,
        )

    def soa_restore(
        self,
        energy_j: float,
        charged_j: float,
        leaked_j: float,
        wasted_j: float,
    ) -> None:
        """Adopt state evolved by a bulk engine.

        The batched loops and the fleet's row kernel are
        bit-identical to :meth:`step`, so this is a plain assignment —
        no clamping, which would break the bit-for-bit guarantee.
        """
        self._energy_j = energy_j
        self.total_charged_j = charged_j
        self.total_leaked_j = leaked_j
        self.total_wasted_j = wasted_j

    # -- observability -------------------------------------------------------

    def bind_gauges(self, registry, platform: str = "storage") -> None:
        """Register callback gauges on a metrics registry.

        The gauges sample this capacitor lazily when the registry is
        read — the simulation hot path is untouched.  Covers the live
        state (energy, voltage, state of charge) and the cumulative
        energy ledger (charged / delivered / leaked / wasted).
        """
        live = {
            "storage_energy_j": lambda: self._energy_j,
            "storage_voltage_v": lambda: self.voltage_v,
            "storage_state_of_charge": lambda: self.state_of_charge,
            "storage_charged_total_j": lambda: self.total_charged_j,
            "storage_delivered_total_j": lambda: self.total_delivered_j,
            "storage_leaked_total_j": lambda: self.total_leaked_j,
            "storage_wasted_total_j": lambda: self.total_wasted_j,
        }
        for name, fn in live.items():
            gauge = registry.gauge(
                name, f"capacitor {name}", labels=("platform",)
            )
            gauge.labels(platform=platform).set_function(fn)

    def __repr__(self) -> str:
        return (
            f"Capacitor(C={self.capacitance_f * 1e6:.3g}uF, "
            f"V={self.voltage_v:.3g}/{self.v_max_v:.3g}V, "
            f"E={self._energy_j * 1e6:.3g}uJ)"
        )
