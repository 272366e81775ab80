"""Tests for the extension features: hybrid harvesting, endurance
lifetime, peripheral state, and the front-end storage facade."""

import numpy as np
import pytest

from repro.core.config import NVPConfig
from repro.core.nvp import NVPPlatform
from repro.harvest.sources import (
    combine_traces,
    constant_trace,
    hybrid_trace,
    solar_trace,
    thermal_trace,
    wristwatch_trace,
)
from repro.storage.capacitor import Capacitor, ChargeEfficiency
from repro.storage.frontend import DualChannelFrontEnd, SingleChannelFrontEnd
from repro.system.peripherals import (
    ADC_10BIT,
    IMAGE_SENSOR,
    Peripheral,
    PeripheralSet,
)
from repro.system.simulator import SystemSimulator
from repro.workloads.base import AbstractWorkload


class TestHybridHarvesting:
    def test_combine_sums_pointwise(self):
        a = constant_trace(10e-6, 0.01)
        b = constant_trace(5e-6, 0.01)
        combined = combine_traces([a, b])
        assert combined.mean_power_w == pytest.approx(15e-6)
        assert combined.source == "hybrid"

    def test_combine_rejects_mismatched(self):
        a = constant_trace(1e-6, 0.01)
        b = constant_trace(1e-6, 0.02)
        with pytest.raises(ValueError):
            combine_traces([a, b])
        with pytest.raises(ValueError):
            combine_traces([])

    def test_hybrid_trace_sums_sources(self):
        trace = hybrid_trace(1.0, sources=("solar", "thermal"), seed=4)
        assert trace.source == "solar+thermal"
        # The hybrid mean is roughly the sum of the component means.
        assert trace.mean_power_w == pytest.approx(220e-6, rel=0.15)

    def test_hybrid_smooths_supply(self):
        """Adding a steady source to a bursty one lowers relative
        variability — the multi-source harvesting argument."""
        watch = wristwatch_trace(2.0, seed=9)
        hybrid = combine_traces(
            [watch, constant_trace(25e-6, 2.0)], source="watch+const"
        )
        cv_watch = watch.samples_w.std() / watch.mean_power_w
        cv_hybrid = hybrid.samples_w.std() / hybrid.mean_power_w
        assert cv_hybrid < cv_watch

    def test_hybrid_unknown_source(self):
        with pytest.raises(KeyError):
            hybrid_trace(1.0, sources=("solar", "fusion"))
        with pytest.raises(ValueError):
            hybrid_trace(1.0, sources=())

    def test_hybrid_deterministic(self):
        assert hybrid_trace(0.5, seed=3) == hybrid_trace(0.5, seed=3)


def lossless_cap(capacitance=1e-6):
    return Capacitor(
        capacitance,
        v_max_v=3.3,
        leak_resistance_ohm=1e18,
        efficiency=ChargeEfficiency(1.0, 1.0, 0.0, 1.0),
    )


class TestPeripherals:
    def test_validation(self):
        with pytest.raises(ValueError):
            Peripheral("bad", reinit_instructions=-1)
        with pytest.raises(ValueError):
            Peripheral("bad", active_power_w=-1.0)

    def test_set_aggregates(self):
        periphs = PeripheralSet([ADC_10BIT, IMAGE_SENSOR])
        assert len(periphs) == 2
        assert periphs.active_power_w == pytest.approx(
            ADC_10BIT.active_power_w + IMAGE_SENSOR.active_power_w
        )
        energy, time_s = periphs.reinit_cost(0.3e-9, 1.3e-6)
        assert energy > ADC_10BIT.reinit_energy_j + IMAGE_SENSOR.reinit_energy_j
        assert time_s > ADC_10BIT.reinit_settle_s + IMAGE_SENSOR.reinit_settle_s

    def test_reinit_cost_validation(self):
        with pytest.raises(ValueError):
            PeripheralSet([ADC_10BIT]).reinit_cost(-1.0, 1.0)

    def test_peripheral_tax_erodes_forward_progress(self):
        """The same NVP with an attached image sensor makes visibly
        less progress: every wake-up pays the re-init tax and the run
        load carries the sensor bias."""
        from repro.harvest.sources import square_trace

        trace = square_trace(
            high_w=1000e-6, low_w=0.0, period_s=0.4, duty=0.3, duration_s=4.0
        )
        # The capacitor must be big enough to hold the sensor's wake-up
        # re-init energy (it is folded into the start threshold), and
        # the off-periods long enough to force real power-downs.
        bare = NVPPlatform(AbstractWorkload(), lossless_cap(2e-6), NVPConfig())
        bare_result = SystemSimulator(trace, bare, stop_when_finished=False).run()
        periphs = PeripheralSet([IMAGE_SENSOR])
        taxed = NVPPlatform(
            AbstractWorkload(), lossless_cap(2e-6), NVPConfig(),
            peripherals=periphs,
        )
        taxed_result = SystemSimulator(trace, taxed, stop_when_finished=False).run()
        assert taxed_result.forward_progress < bare_result.forward_progress
        assert periphs.reinits > 0
        assert taxed_result.extras["peripheral_reinits"] == periphs.reinits

    def test_empty_set_is_free(self):
        periphs = PeripheralSet()
        assert periphs.active_power_w == 0.0
        assert periphs.reinit_cost(1e-9, 1e-6) == (0.0, 0.0)


class TestFrontEndFacade:
    def test_facade_exposes_storage_interface(self):
        cap = lossless_cap()
        channel = DualChannelFrontEnd(cap)
        cap.set_energy(1e-7)
        assert channel.energy_j == pytest.approx(1e-7)
        assert channel.energy_max_j == cap.energy_max_j
        assert channel.draw(4e-8) == pytest.approx(4e-8)
        channel.set_energy(2e-8)
        assert cap.energy_j == pytest.approx(2e-8)

    def test_nvp_runs_on_dual_channel_frontend(self):
        """A platform accepts the front end in place of raw storage."""
        from repro.harvest.sources import square_trace

        trace = square_trace(
            high_w=500e-6, low_w=0.0, period_s=0.1, duty=0.5, duration_s=2.0
        )
        channel = DualChannelFrontEnd(lossless_cap(100e-9), bypass_efficiency=0.95)
        platform = NVPPlatform(AbstractWorkload(), channel, NVPConfig())
        result = SystemSimulator(trace, platform, stop_when_finished=False).run()
        assert result.forward_progress > 0
        assert channel.total_bypassed_j > 0

    def test_dual_channel_beats_single_on_lossy_storage(self):
        """With a conversion-lossy capacitor, the bypass path wins."""
        from repro.harvest.sources import square_trace

        def lossy_cap():
            return Capacitor(
                150e-9, v_max_v=3.3, leak_resistance_ohm=1e9,
                efficiency=ChargeEfficiency(0.6, 0.4, 2.0, 2.0),
            )

        trace = square_trace(
            high_w=400e-6, low_w=0.0, period_s=0.02, duty=0.5, duration_s=3.0
        )
        single = NVPPlatform(
            AbstractWorkload(), SingleChannelFrontEnd(lossy_cap()), NVPConfig()
        )
        dual = NVPPlatform(
            AbstractWorkload(),
            DualChannelFrontEnd(lossy_cap(), bypass_efficiency=0.95),
            NVPConfig(),
        )
        single_result = SystemSimulator(trace, single, stop_when_finished=False).run()
        dual_result = SystemSimulator(trace, dual, stop_when_finished=False).run()
        assert dual_result.forward_progress > single_result.forward_progress
