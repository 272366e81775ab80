"""Tests for two-tier storage and NVM wear/endurance modelling."""

import numpy as np
import pytest

from repro.core.config import NVPConfig
from repro.core.nvp import NVPPlatform
from repro.harvest.sources import square_trace, wristwatch_trace
from repro.nvm.array import NVMArray
from repro.nvm.technology import NVMTechnology
from repro.storage.capacitor import Capacitor, ChargeEfficiency
from repro.storage.tiered import TieredStorage
from repro.system.presets import standard_rectifier
from repro.system.simulator import SystemSimulator
from repro.workloads.base import AbstractWorkload


def lossless(capacitance):
    return Capacitor(
        capacitance,
        v_max_v=3.3,
        leak_resistance_ohm=1e18,
        efficiency=ChargeEfficiency(1.0, 1.0, 0.0, 1.0),
    )


def tiered(primary_f=150e-9, reservoir_f=10e-6, **kwargs):
    return TieredStorage(lossless(primary_f), lossless(reservoir_f), **kwargs)


class TestTieredStorage:
    def test_validation(self):
        with pytest.raises(ValueError):
            tiered(transfer_efficiency=0.0)
        with pytest.raises(ValueError):
            tiered(transfer_power_w=0.0)
        with pytest.raises(ValueError):
            tiered(refill_fraction=1.5)
        store = tiered()
        with pytest.raises(ValueError):
            store.step(-1.0, 0.0, 1e-4)
        with pytest.raises(ValueError):
            store.draw(-1.0)

    def test_income_fills_primary_first(self):
        store = tiered()
        store.step(100e-6, 0.0, 1e-3)
        assert store.primary.energy_j > 0
        assert store.reservoir.energy_j == 0.0

    def test_overflow_spills_to_reservoir(self):
        store = tiered(primary_f=10e-9)  # tiny primary (54 nJ)
        store.step(2000e-6, 0.0, 1e-3)  # 2 uJ >> capacity
        assert store.primary.energy_j == pytest.approx(
            store.primary.energy_max_j
        )
        assert store.reservoir.energy_j > 0
        assert store.total_spilled_j > 0

    def test_spill_pays_transfer_efficiency(self):
        store = tiered(primary_f=10e-9, transfer_efficiency=0.5)
        store.step(2000e-6, 0.0, 1e-3)
        offered = 2e-6 - store.primary.energy_max_j
        assert store.reservoir.energy_j == pytest.approx(0.5 * offered, rel=0.05)

    def test_refill_during_drought(self):
        store = tiered()
        store.reservoir.set_energy(5e-6)
        store.primary.set_energy(0.0)
        store.step(0.0, 0.0, 1e-3)
        assert store.primary.energy_j > 0
        assert store.total_refilled_j > 0

    def test_refill_rate_limited(self):
        store = tiered(transfer_power_w=100e-6)
        store.reservoir.set_energy(5e-6)
        store.primary.set_energy(0.0)
        store.step(0.0, 0.0, 1e-3)
        assert store.primary.energy_j <= 100e-6 * 1e-3 + 1e-15

    def test_no_refill_above_fraction(self):
        store = tiered(refill_fraction=0.5)
        store.reservoir.set_energy(5e-6)
        store.primary.set_energy(0.9 * store.primary.energy_max_j)
        store.step(0.0, 0.0, 1e-3)
        assert store.total_refilled_j == 0.0

    def test_draw_falls_back_to_reservoir(self):
        store = tiered(transfer_efficiency=1.0)
        store.primary.set_energy(1e-7)
        store.reservoir.set_energy(1e-6)
        got = store.draw(5e-7)
        assert got == pytest.approx(5e-7)
        assert store.reservoir.energy_j < 1e-6

    def test_energy_j_reports_primary_only(self):
        store = tiered()
        store.reservoir.set_energy(1e-6)
        assert store.energy_j == 0.0
        assert store.total_energy_j == pytest.approx(1e-6)

    def test_nvp_gains_from_reservoir_on_bursty_income(self):
        """Spiky income overflows a lone small capacitor; the tier
        captures the spikes and converts them into forward progress."""
        trace = wristwatch_trace(6.0, seed=20, mean_power_w=30e-6)

        def run(storage):
            platform = NVPPlatform(AbstractWorkload(), storage, NVPConfig())
            return SystemSimulator(
                trace, platform, rectifier=standard_rectifier(),
                stop_when_finished=False,
            ).run()

        alone = run(lossless(150e-9))
        two_tier = run(tiered())
        assert two_tier.forward_progress > 1.1 * alone.forward_progress

    def test_platform_compatible_interface(self):
        trace = square_trace(500e-6, 0.0, 0.1, 0.5, 1.0)
        platform = NVPPlatform(AbstractWorkload(), tiered(), NVPConfig())
        result = SystemSimulator(trace, platform, stop_when_finished=False).run()
        # The reservoir bridges the off-periods entirely here, so the
        # work stays volatile (no backups needed) — but it executed.
        assert result.total_executed > 0


def short_lived_tech(endurance=10):
    return NVMTechnology(
        name="weak",
        write_energy_j_per_bit=1e-12,
        read_energy_j_per_bit=1e-13,
        write_latency_s=50e-9,
        read_latency_s=50e-9,
        retention_s=3.15e8,
        endurance_cycles=endurance,
        wakeup_time_s=1e-6,
        supports_retention_relaxation=True,
    )


class TestWear:
    def test_write_counts_tracked(self):
        array = NVMArray(4)
        for _ in range(5):
            array.write(0, 1)
        array.write(1, 2)
        assert array._write_counts == [5, 1, 0, 0]

    def test_no_enforcement_by_default(self):
        array = NVMArray(2, short_lived_tech(endurance=3))
        for value in range(10):
            array.write(0, value)
        assert array.read(0) == 9  # keeps updating
        assert array._write_counts[0] == 10

    def test_enforcement_sticks_worn_cells(self):
        array = NVMArray(2, short_lived_tech(endurance=3), enforce_endurance=True)
        for value in range(10):
            array.write(0, value)
        # Writes 1..3 landed; the rest were dropped.
        assert array.read(0) == 2
        assert array.stats.worn_writes == 7

    def test_worn_writes_still_cost_energy(self):
        array = NVMArray(1, short_lived_tech(endurance=1), enforce_endurance=True)
        array.write(0, 1)
        energy_after_first = array.stats.write_energy_j
        array.write(0, 2)
        assert array.stats.write_energy_j == pytest.approx(2 * energy_after_first)
