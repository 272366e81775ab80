"""Independent references for the run books every engine shares.

Every engine keeps its state time and completion stamp in one
``RunTally`` and sums harvested energy with one ``harvested_j``, so
the engine-versus-engine suites (``test_fastpath_equivalence``,
``test_obs_synth``, the fleet-equivalence classes) cannot see a bug in
either: all engines would share it.  These tests check the books
against references computed without them — per-state residency from
counting ``sim.tick`` events, and harvested energy from the plain
cumulative-sum formula over the rectified trace.
"""

import numpy as np
import pytest

from repro.exp.runner import build_simulator, build_trace
from repro.exp.spec import resolve_config
from repro.fleet import FleetKernel
from repro.fleet.spec import DEVICE_OFFSET_KEY, resolve_device_config
from repro.harvest.sources import square_trace, wristwatch_trace
from repro.obs import events as ev
from repro.obs.events import EventBus
from repro.system.presets import (
    build_checkpoint,
    build_nvp,
    build_oracle,
    build_wait_compute,
    standard_rectifier,
)
from repro.system.simulator import SystemSimulator
from repro.workloads.base import AbstractWorkload

PRESETS = {
    "nvp": build_nvp,
    "wait": build_wait_compute,
    "checkpoint": build_checkpoint,
    "oracle": build_oracle,
}

TRACES = {
    "square_outage": lambda: square_trace(400e-6, 0.0, 2.0, 0.08, 3.0),
    "wristwatch": lambda: wristwatch_trace(2.0, seed=11),
}


def reference_harvested_j(p_dc, dt_s, ticks_run):
    """Harvested energy written out: the cumulative sum of the whole
    rectified trace, times ``dt``, read at the last tick run."""
    return float((np.cumsum(p_dc) * dt_s)[ticks_run - 1])


def ticks_of(result, dt_s):
    return round(result.duration_s / dt_s)


class TestStateResidency:
    @pytest.mark.parametrize("trace_name", sorted(TRACES))
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_state_time_is_tick_events_times_dt(self, preset, trace_name):
        trace = TRACES[trace_name]()
        counts = {}

        def count(event):
            state = event.data["state"]
            counts[state] = counts.get(state, 0) + 1

        bus = EventBus()
        bus.subscribe(count, names=(ev.TICK,))
        exact = SystemSimulator(
            trace,
            PRESETS[preset](AbstractWorkload()),
            rectifier=standard_rectifier(),
            stop_when_finished=False,
            bus=bus,
        )
        result = exact.run()
        assert exact.ticks_exact == len(trace)
        assert sum(counts.values()) == len(trace)
        assert set(result.state_time_s) == set(counts)
        for state, ticks in counts.items():
            assert result.state_time_s[state] == pytest.approx(
                ticks * trace.dt_s, rel=1e-12
            ), state

        default = SystemSimulator(
            trace,
            PRESETS[preset](AbstractWorkload()),
            rectifier=standard_rectifier(),
            stop_when_finished=False,
        )
        assert default.run().state_time_s == result.state_time_s
        assert default.ticks_exact < len(trace)


class TestHarvestedEnergy:
    @pytest.mark.parametrize("knob", [None, False])
    def test_full_run(self, knob):
        trace = wristwatch_trace(2.0, seed=11)
        p_dc = standard_rectifier().output_power_array(trace.samples_w)
        result = SystemSimulator(
            trace,
            build_nvp(AbstractWorkload()),
            rectifier=standard_rectifier(),
            stop_when_finished=False,
            use_fast_forward=knob,
            use_exact_batch=knob,
        ).run()
        assert ticks_of(result, trace.dt_s) == len(trace)
        assert result.harvested_j == reference_harvested_j(
            p_dc, trace.dt_s, len(trace)
        )

    def test_run_cut_short_by_completion(self):
        config = resolve_config({
            "kernel": "crc", "frames": 1, "duration_s": 2.0, "seed": 3,
        })
        trace = build_trace(config)
        result = build_simulator(config, trace).run()
        ticks_run = ticks_of(result, trace.dt_s)
        assert result.completed
        assert result.completion_time_s == result.duration_s
        assert 0 < ticks_run < len(trace)
        p_dc = standard_rectifier().output_power_array(trace.samples_w)
        assert result.harvested_j == reference_harvested_j(
            p_dc, trace.dt_s, ticks_run
        )

    def test_offset_fleet_devices(self):
        configs = [
            resolve_device_config({
                "platform": platform, "duration_s": 1.0, "seed": 5,
                DEVICE_OFFSET_KEY: offset, **extra,
            })
            for platform, offset, extra in (
                ("nvp", 0.0, {}),
                ("checkpoint", 0.3, {}),
                ("wait", 0.55, {}),
                ("nvp", 0.2, {"kernel": "crc", "frames": 1}),
            )
        ]
        for config, result in zip(configs, FleetKernel(configs).run()):
            trace = build_trace(config)
            if config[DEVICE_OFFSET_KEY]:
                trace = trace.tail(config[DEVICE_OFFSET_KEY])
            p_dc = standard_rectifier().output_power_array(trace.samples_w)
            ticks_run = ticks_of(result, trace.dt_s)
            assert ticks_run == len(trace) or result.completed
            assert result.harvested_j == reference_harvested_j(
                p_dc, trace.dt_s, ticks_run
            )
