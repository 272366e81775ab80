"""Run-length event synthesis: fast-path event streams vs. exact.

The fast-forward engine no longer goes dark: with any non-per-tick
subscription the simulator keeps the fast path and *synthesizes* the
event stream from run lengths (:mod:`repro.obs.synth`).  These tests
hold that stream to bitwise equality with the exact engine —
``(name, t_s, seq, data)`` tuple for tuple — property-style across
every platform preset and randomized solar/RF/wristwatch traces, and
pin down the subscription-sensitive engine selection rule: only a
``sim.tick`` subscriber forces exact ticking.
"""

import numpy as np
import pytest

from repro.harvest.sources import (
    hybrid_trace,
    rf_trace,
    solar_trace,
    square_trace,
    wristwatch_trace,
)
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

PLATFORM_BUILDERS = {
    "nvp": build_nvp,
    "wait": build_wait_compute,
    "checkpoint": build_checkpoint,
    "oracle": build_oracle,
}

TRACE_MAKERS = {
    "square_outage": lambda seed: square_trace(400e-6, 0.0, 2.0, 0.08, 3.0),
    "wristwatch": lambda seed: wristwatch_trace(2.0, seed=seed),
    "solar": lambda seed: solar_trace(2.0, mean_power_w=60e-6, seed=seed),
    "rf": lambda seed: rf_trace(2.0, seed=seed),
    "hybrid": lambda seed: hybrid_trace(2.0, seed=seed),
}


def observed_run(builder, trace, use_fast_forward, sample_stride=0,
                 names=ev.NON_TICK_EVENT_NAMES):
    """One simulation with a recording bus; returns (result, log, sim)."""
    bus = EventBus()
    log = bus.record(names=names)
    simulator = SystemSimulator(
        trace,
        builder(AbstractWorkload()),
        rectifier=standard_rectifier(),
        bus=bus,
        sample_stride=sample_stride,
        use_fast_forward=use_fast_forward,
    )
    return simulator.run(), log, simulator


def stream(log):
    """The recorded stream as comparable (name, t_s, seq, data) tuples."""
    return [(e.name, e.t_s, e.seq, e.data) for e in log]


def assert_streams_identical(fast_log, slow_log):
    fast, slow = stream(fast_log), stream(slow_log)
    for index, (got, want) in enumerate(zip(fast, slow)):
        assert got == want, (
            f"event {index}: fast={got!r} != exact={want!r}"
        )
    assert len(fast) == len(slow), (
        f"fast emitted {len(fast)} events, exact {len(slow)}"
    )


class TestStreamEquivalence:
    @pytest.mark.parametrize("platform", sorted(PLATFORM_BUILDERS))
    @pytest.mark.parametrize("trace_kind", sorted(TRACE_MAKERS))
    @pytest.mark.parametrize("seed", [1, 17])
    def test_bitwise_identical_event_stream(self, platform, trace_kind, seed):
        trace = TRACE_MAKERS[trace_kind](seed)
        builder = PLATFORM_BUILDERS[platform]
        fast_result, fast_log, fast_sim = observed_run(builder, trace, None)
        slow_result, slow_log, _ = observed_run(builder, trace, False)
        if platform != "oracle":
            assert fast_sim.ticks_fast_forwarded > 0, (
                "non-TICK subscription must not force the exact engine"
            )
        assert_streams_identical(fast_log, slow_log)
        assert fast_result.to_dict() == slow_result.to_dict()

    @pytest.mark.parametrize("stride", [1, 7, 1000])
    def test_sample_stream_identical(self, stride):
        trace = square_trace(400e-6, 0.0, 2.0, 0.08, 2.0)
        _, fast_log, fast_sim = observed_run(
            build_nvp, trace, None, sample_stride=stride
        )
        _, slow_log, _ = observed_run(
            build_nvp, trace, False, sample_stride=stride
        )
        assert fast_sim.ticks_fast_forwarded > 0
        assert_streams_identical(fast_log, slow_log)
        samples = [e for e in fast_log if e.name == ev.SAMPLE]
        assert len(samples) == (len(trace) + stride - 1) // stride
        for event in samples:
            assert event.data["tick"] % stride == 0
            assert event.data["state"]

    def test_outage_stream_matches_threshold_crossings(self):
        trace = square_trace(400e-6, 0.0, 2.0, 0.08, 2.0)
        _, log, sim = observed_run(build_nvp, trace, None)
        assert sim.ticks_fast_forwarded > 0
        begins = [e for e in log if e.name == ev.OUTAGE_BEGIN]
        ends = [e for e in log if e.name == ev.OUTAGE_END]
        assert begins, "outage-heavy square wave must produce outages"
        assert len(begins) - len(ends) in (0, 1)
        for end in ends:
            assert end.data["duration_s"] > 0

    def test_sim_begin_and_end_frame_the_stream(self):
        trace = wristwatch_trace(1.0, seed=3)
        _, log, _ = observed_run(build_nvp, trace, None)
        events = list(log)
        assert events[0].name == ev.SIM_BEGIN
        assert events[-1].name == ev.SIM_END


class TestEngineSelection:
    def test_non_tick_subscriber_keeps_fast_path(self):
        trace = square_trace(400e-6, 0.0, 2.0, 0.08, 2.0)
        _, _, sim = observed_run(build_nvp, trace, None)
        plain_sim = SystemSimulator(
            trace,
            build_nvp(AbstractWorkload()),
            rectifier=standard_rectifier(),
        )
        plain_sim.run()
        assert sim.ticks_fast_forwarded == plain_sim.ticks_fast_forwarded > 0

    def test_tick_subscriber_forces_exact(self):
        trace = square_trace(400e-6, 0.0, 2.0, 0.08, 1.0)
        _, _, sim = observed_run(build_nvp, trace, None,
                                 names=(ev.TICK, ev.SIM_END))
        assert sim.ticks_fast_forwarded == 0
        assert sim.ticks_exact == len(trace)

    def test_subscribe_all_forces_exact(self):
        trace = square_trace(400e-6, 0.0, 2.0, 0.08, 1.0)
        bus = EventBus()
        bus.subscribe(lambda event: None)
        simulator = SystemSimulator(
            trace,
            build_nvp(AbstractWorkload()),
            rectifier=standard_rectifier(),
            bus=bus,
        )
        simulator.run()
        assert simulator.ticks_fast_forwarded == 0

    def test_sample_stride_validated(self):
        trace = wristwatch_trace(0.1, seed=1)
        with pytest.raises(ValueError):
            SystemSimulator(
                trace,
                build_nvp(AbstractWorkload()),
                sample_stride=-1,
            )

    @pytest.mark.parametrize("stride", [2.5, 2.0, True, "3"])
    def test_non_integer_sample_stride_rejected(self, stride):
        """A fractional stride sampled every ``int(stride)`` ticks in
        synthesis but tested ``tick % stride`` on the scalar path."""
        trace = wristwatch_trace(1.0, seed=7)
        with pytest.raises(ValueError, match="sample_stride"):
            SystemSimulator(
                trace,
                build_nvp(AbstractWorkload()),
                bus=EventBus(),
                sample_stride=stride,
            )

    def test_numpy_integer_sample_stride_accepted(self):
        trace = wristwatch_trace(1.0, seed=7)
        _, log, _ = observed_run(build_nvp, trace, None,
                                 sample_stride=np.int64(250))
        ticks = [e.data["tick"] for e in log if e.name == ev.SAMPLE]
        assert ticks == list(range(0, len(trace), 250))

