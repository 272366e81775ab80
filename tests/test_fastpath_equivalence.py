"""Fast-path engine equivalence: fast-forward on vs. off.

The steady-state fast-forward (`docs/performance.md`) promises
*bit-identical* :class:`~repro.system.result.SimulationResult`s against
the exact per-tick loop.  These tests hold it to that promise,
property-style: randomized solar/RF/wristwatch traces and deterministic
outage-heavy square waves, across every platform preset, compared field
by field with strict equality (no ``approx``).
"""

import copy

import numpy as np
import pytest

from repro.harvest.rectifier import IDEAL_RECTIFIER, Rectifier
from repro.harvest.sources import (
    rf_trace,
    solar_trace,
    square_trace,
    wristwatch_trace,
)
from repro.obs import events as ev
from repro.obs.events import EventBus
from repro.obs.metrics import MetricsRegistry
from repro.storage.capacitor import Capacitor, ChargeEfficiency
from repro.storage.frontend import DualChannelFrontEnd, SingleChannelFrontEnd
from repro.storage.ideal import IdealStorage
from repro.storage.tiered import TieredStorage
from repro.system.presets import (
    build_checkpoint,
    build_nvp,
    build_oracle,
    build_wait_compute,
    nvp_capacitor,
    standard_rectifier,
    supercap,
)
from repro.system.simulator import SystemSimulator
from repro.workloads.base import AbstractWorkload

PLATFORM_BUILDERS = {
    "nvp": build_nvp,
    "wait": build_wait_compute,
    "checkpoint": build_checkpoint,
    "oracle": build_oracle,
}

#: An NVP's storage element: only a Capacitor (here an IdealStorage)
#: may take a bulk path; the others tick exactly in every engine.
STORES = {
    "ideal": lambda: IdealStorage(5e-7),
    "tiered": lambda: TieredStorage(nvp_capacitor(), Capacitor(10e-6)),
    "single_channel": lambda: SingleChannelFrontEnd(nvp_capacitor()),
    "dual_channel": lambda: DualChannelFrontEnd(nvp_capacitor()),
}

TRACE_MAKERS = {
    "square_outage": lambda seed: square_trace(400e-6, 0.0, 2.0, 0.08, 4.0),
    "wristwatch": lambda seed: wristwatch_trace(3.0, seed=seed),
    "solar": lambda seed: solar_trace(3.0, mean_power_w=60e-6, seed=seed),
    "rf": lambda seed: rf_trace(3.0, seed=seed),
}


def run_sim(builder, trace, use_fast_forward, stop_when_finished=False,
            rectifier="standard", **sim_kwargs):
    """Build a fresh platform and run one simulation."""
    platform = builder(AbstractWorkload())
    rect = standard_rectifier() if rectifier == "standard" else rectifier
    simulator = SystemSimulator(
        trace,
        platform,
        rectifier=rect,
        stop_when_finished=stop_when_finished,
        use_fast_forward=use_fast_forward,
        **sim_kwargs,
    )
    return simulator.run(), simulator


def assert_identical(fast, slow):
    """Field-by-field strict equality between two results."""
    fast_dict, slow_dict = fast.to_dict(), slow.to_dict()
    assert fast_dict.keys() == slow_dict.keys()
    for key in slow_dict:
        assert fast_dict[key] == slow_dict[key], (
            f"{key}: fast={fast_dict[key]!r} != exact={slow_dict[key]!r}"
        )


class TestFastSlowEquivalence:
    @pytest.mark.parametrize("platform", sorted(PLATFORM_BUILDERS))
    @pytest.mark.parametrize("trace_kind", sorted(TRACE_MAKERS))
    @pytest.mark.parametrize("seed", [1, 17])
    def test_bit_identical_results(self, platform, trace_kind, seed):
        trace = TRACE_MAKERS[trace_kind](seed)
        builder = PLATFORM_BUILDERS[platform]
        fast, _ = run_sim(builder, trace, use_fast_forward=None)
        slow, _ = run_sim(builder, trace, use_fast_forward=False)
        assert_identical(fast, slow)

    @pytest.mark.parametrize("platform", sorted(PLATFORM_BUILDERS))
    def test_bit_identical_when_stopping_at_completion(self, platform):
        trace = wristwatch_trace(3.0, seed=5)
        builder = PLATFORM_BUILDERS[platform]

        def small(workload):
            del workload
            return builder(
                AbstractWorkload(total_units=2, instructions_per_unit=2_000)
            )

        fast, _ = run_sim(small, trace, use_fast_forward=None,
                          stop_when_finished=True)
        slow, _ = run_sim(small, trace, use_fast_forward=False,
                          stop_when_finished=True)
        assert_identical(fast, slow)

    def test_done_tail_is_fast_forwarded(self):
        """After completion the remaining trace is skipped in bulk."""
        trace = wristwatch_trace(3.0, seed=5)

        def small(workload):
            del workload
            return build_nvp(
                AbstractWorkload(total_units=1, instructions_per_unit=1_000)
            )

        fast, sim = run_sim(small, trace, use_fast_forward=None)
        slow, _ = run_sim(small, trace, use_fast_forward=False)
        assert fast.completed
        assert fast.state_time_s.get("done", 0.0) > 0.0
        assert sim.ticks_fast_forwarded > 0
        assert_identical(fast, slow)

    def test_without_rectifier(self):
        trace = square_trace(300e-6, 0.0, 1.0, 0.1, 3.0)
        fast, _ = run_sim(build_nvp, trace, None, rectifier=None)
        slow, _ = run_sim(build_nvp, trace, False, rectifier=None)
        assert_identical(fast, slow)

    @pytest.mark.parametrize("store", sorted(STORES))
    def test_nvp_on_each_store(self, store):
        """Only a Capacitor takes the bulk paths, and every store's
        default run equals its scalar run."""
        from repro.core.nvp import NVPPlatform

        trace = wristwatch_trace(2.0, seed=9)

        def nvp(workload):
            return NVPPlatform(workload, STORES[store](), seed=0)

        fast, sim = run_sim(nvp, trace, None)
        slow, _ = run_sim(nvp, trace, False, use_exact_batch=False)
        # Both bulk paths would have had ticks to take.
        assert slow.state_time_s["off"] > 0 and slow.state_time_s["run"] > 0
        if store == "ideal":
            assert sim.ticks_fast_forwarded > 0 and sim.ticks_batched > 0
        else:
            assert sim.ticks_fast_forwarded == sim.ticks_batched == 0
        assert_identical(fast, slow)

    def test_tick_counters_partition_the_run(self):
        trace = square_trace(400e-6, 0.0, 2.0, 0.08, 3.0)
        fast, sim = run_sim(build_nvp, trace, None)
        assert sim.ticks_fast_forwarded > 0
        assert sim.ticks_batched > 0
        assert (
            sim.ticks_fast_forwarded + sim.ticks_batched + sim.ticks_exact
            == len(trace)
        )
        _, slow_sim = run_sim(build_nvp, trace, False,
                              use_exact_batch=False)
        assert slow_sim.ticks_fast_forwarded == 0
        assert slow_sim.ticks_batched == 0
        assert slow_sim.ticks_exact == len(trace)


class TestBusFallback:
    def test_bus_forces_exact_path_with_identical_result(self):
        """An attached bus falls back to exact ticking, same result."""
        trace = square_trace(400e-6, 0.0, 2.0, 0.08, 3.0)
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)
        observed, sim = run_sim(build_nvp, trace, use_fast_forward=None,
                                bus=bus)
        assert sim.ticks_fast_forwarded == 0
        assert len(seen) > 0
        plain, _ = run_sim(build_nvp, trace, use_fast_forward=None)
        assert_identical(observed, plain)

    def test_metrics_report_tick_path_split(self):
        trace = square_trace(400e-6, 0.0, 2.0, 0.08, 2.0)
        metrics = MetricsRegistry()
        _, sim = run_sim(build_nvp, trace, use_fast_forward=None,
                         metrics=metrics)
        counter = metrics.counter(
            "sim_ticks", "simulated ticks by engine path",
            labels=("platform", "path"),
        )
        fast = counter.labels(platform="nvp", path="fast_forward").value
        batched = counter.labels(platform="nvp", path="exact_batch").value
        exact = counter.labels(platform="nvp", path="exact").value
        assert fast == sim.ticks_fast_forwarded > 0
        assert batched == sim.ticks_batched > 0
        assert exact == sim.ticks_exact
        assert fast + batched + exact == len(trace)

    def test_metrics_labels_on_forced_exact_path(self):
        trace = square_trace(400e-6, 0.0, 2.0, 0.08, 2.0)
        metrics = MetricsRegistry()
        _, sim = run_sim(build_nvp, trace, use_fast_forward=False,
                         use_exact_batch=False, metrics=metrics)
        counter = metrics.counter(
            "sim_ticks", "simulated ticks by engine path",
            labels=("platform", "path"),
        )
        assert counter.labels(platform="nvp", path="exact").value == len(trace)
        assert counter.labels(platform="nvp", path="fast_forward").value == 0
        assert counter.labels(platform="nvp", path="exact_batch").value == 0
        assert sim.ticks_fast_forwarded == 0
        assert sim.ticks_batched == 0


class TestSynthesizedEventStreams:
    """Both bulk engines must synthesize the exact event stream the
    scalar interpreter emits — `(name, t_s, seq, data)` tuples equal,
    in order, across platforms and sources."""

    @staticmethod
    def assert_engines_agree(builder, trace):
        """Every engine combination emits the scalar engine's stream
        and result; returns that stream."""

        def stream(fast, batch):
            bus = EventBus()
            log = bus.record(names=ev.NON_TICK_EVENT_NAMES)
            result, _ = run_sim(
                builder, trace, use_fast_forward=fast,
                use_exact_batch=batch, bus=bus, sample_stride=500,
            )
            return [(e.name, e.t_s, e.seq, e.data) for e in log], result

        scalar_events, scalar_result = stream(False, False)
        assert scalar_events
        for fast, batch in ((None, None), (False, None), (None, False)):
            events, result = stream(fast, batch)
            assert events == scalar_events, (fast, batch)
            assert result.to_dict() == scalar_result.to_dict()
        return scalar_events

    @pytest.mark.parametrize("platform", sorted(PLATFORM_BUILDERS))
    @pytest.mark.parametrize("trace_kind", sorted(TRACE_MAKERS))
    def test_streams_bitwise_identical_across_engines(
        self, platform, trace_kind
    ):
        self.assert_engines_agree(
            PLATFORM_BUILDERS[platform], TRACE_MAKERS[trace_kind](3)
        )

    @pytest.mark.parametrize("trace_kind, recomputes", [
        ("rf", 22), ("square_outage", 1), ("wristwatch", 26),
    ])
    def test_adaptive_margin_streams_bitwise_identical(
        self, trace_kind, recomputes
    ):
        """Margin changes make the NVP re-plan its thresholds inside
        ``fast_forward``'s ``wake_target_j()``: the one emit a platform
        makes from inside a bulk call, at the call's first tick."""
        from repro.core.config import NVPConfig
        from repro.core.nvp import NVPPlatform
        from repro.system.presets import nvp_capacitor
        from tests.test_adaptive_margin import UnderestimatingWorkload

        def adaptive_nvp(workload):
            del workload
            return NVPPlatform(
                UnderestimatingWorkload(),
                nvp_capacitor(),
                NVPConfig(backup_margin=1.0, label="nvp"),
                seed=0,
                adaptive_margin=True,
            )

        if trace_kind == "wristwatch":
            trace = wristwatch_trace(6.0, seed=2018, mean_power_w=20e-6)
        else:
            trace = TRACE_MAKERS[trace_kind](3)
        events = self.assert_engines_agree(adaptive_nvp, trace)
        names = [name for name, *_ in events]
        assert names.count(ev.THRESHOLD_RECOMPUTE) == recomputes


class TestChargeManyPrimitive:
    """storage.charge_many == repeated step(p, 0, dt), bitwise."""

    def clone_pair(self, make):
        return make(), make()

    @pytest.mark.parametrize("make", [
        lambda: Capacitor(150e-9, v_initial_v=0.5),
        lambda: Capacitor(
            150e-9,
            v_initial_v=1.0,
            leak_resistance_ohm=20e6,
            efficiency=ChargeEfficiency(
                eta_peak=0.90, eta_floor=0.75, v_opt_v=2.0, v_span_v=3.0
            ),
        ),
        supercap,
        lambda: IdealStorage(5e-7, initial_j=1e-8),
    ])
    def test_matches_step_loop(self, make):
        rng = np.random.default_rng(42)
        powers = (rng.uniform(0.0, 500e-6, size=5000)
                  * rng.integers(0, 2, size=5000)).tolist()
        reference, bulk = self.clone_pair(make)
        for p in powers:
            reference.step(p, 0.0, 1e-4)
        consumed, crossed = bulk.charge_many(powers, 0, len(powers), 1e-4)
        assert consumed == len(powers) and not crossed
        assert bulk.energy_j == reference.energy_j
        assert bulk.total_charged_j == reference.total_charged_j
        assert bulk.total_wasted_j == reference.total_wasted_j
        assert bulk.total_leaked_j == reference.total_leaked_j

    def test_stops_before_crossing_tick(self):
        cap = Capacitor(150e-9)
        target = 2e-8
        powers = [100e-6] * 1000
        consumed, crossed = cap.charge_many(powers, 0, len(powers), 1e-4,
                                            target)
        assert crossed
        assert cap.energy_j < target
        # The reference loop stops before the step that reaches the
        # target; the platform's own tick() runs that step.
        reference = Capacitor(150e-9)
        ticks = 0
        while True:
            trial = copy.deepcopy(reference)
            trial.step(100e-6, 0.0, 1e-4)
            if trial.energy_j >= target:
                break
            reference = trial
            ticks += 1
        assert ticks == consumed
        assert cap.energy_j == reference.energy_j
        assert cap.total_charged_j == reference.total_charged_j
        assert cap.total_wasted_j == reference.total_wasted_j
        assert cap.total_leaked_j == reference.total_leaked_j

    def test_respects_window_bounds(self):
        cap = Capacitor(150e-9)
        powers = [100e-6] * 100
        consumed, crossed = cap.charge_many(powers, 10, 20, 1e-4, None)
        assert consumed == 10 and not crossed

    def test_validates_dt(self):
        with pytest.raises(ValueError):
            Capacitor(150e-9).charge_many([1e-6], 0, 1, 0.0)
        with pytest.raises(ValueError):
            IdealStorage(1e-6).charge_many([1e-6], 0, 1, -1.0)


class TestRectifierArrayPath:
    @pytest.mark.parametrize("rect", [
        Rectifier(),
        Rectifier(eta_max=1.0, knee_power_w=0.0, cutin_power_w=0.0),
        IDEAL_RECTIFIER,
    ])
    def test_array_matches_scalar_bitwise(self, rect):
        rng = np.random.default_rng(3)
        samples = np.concatenate([
            rng.uniform(0.0, 100e-6, size=500),
            np.zeros(10),
            np.array([0.5e-6, 1e-6, 2e-6]),  # around the cut-in
        ])
        array_out = rect.output_power_array(samples)
        scalar_out = np.array([rect.output_power(float(p)) for p in samples])
        assert np.array_equal(array_out, scalar_out)

    def test_convert_uses_array_path(self):
        trace = wristwatch_trace(0.2, seed=1)
        rect = standard_rectifier()
        converted = rect.convert(trace)
        assert np.array_equal(
            converted.samples_w, rect.output_power_array(trace.samples_w)
        )


class TestTraceDtype:
    def test_power_trace_guarantees_contiguous_float64(self):
        from repro.harvest.traces import PowerTrace

        trace = PowerTrace([1, 2, 3], 1e-4)
        assert trace.samples_w.dtype == np.float64
        assert trace.samples_w.flags["C_CONTIGUOUS"]
        strided = PowerTrace(
            np.arange(10, dtype=np.float32)[::2], 1e-4
        )
        assert strided.samples_w.dtype == np.float64
        assert strided.samples_w.flags["C_CONTIGUOUS"]


# -- fleet kernel equivalence -------------------------------------------------
#
# The batched fleet kernel (src/repro/fleet/) promises the same
# bit-identity the fast path does: every device of a fleet must
# materialise the exact SimulationResult the single-device engine
# produces on that device's own sub-trace.  Property-tested here over
# every platform preset, every config-expressible source, both
# stop_when_finished modes, and nonzero trace offsets — strict
# equality, no approx.

FLEET_SOURCES = (
    {"source": "wristwatch"},
    {"source": "solar"},
    {"source": "rf"},
    {"source": "thermal"},
    {"source": "hybrid"},
    {"source": "constant", "mean_uw": 30.0},
    {"source": "profile", "profile_index": 2},
)


def fleet_config(platform, source_kw, **overrides):
    from repro.fleet import resolve_device_config

    config = {"platform": platform, "duration_s": 1.0}
    config.update(source_kw)
    config.update(overrides)
    return resolve_device_config(config)


def assert_fleet_identical(fleet_result, config):
    from repro.fleet import replay_device

    single, _ = replay_device(config)
    fast, slow = fleet_result.to_dict(), single.to_dict()
    assert fast == slow, (
        f"fleet result differs from single engine for {config['platform']}"
        f"/{config['source']} offset={config['trace_offset_s']}: "
        f"{ {k: (fast[k], slow[k]) for k in fast if fast[k] != slow[k]} }"
    )


class TestFleetEquivalence:
    @pytest.mark.parametrize("platform", sorted(PLATFORM_BUILDERS))
    @pytest.mark.parametrize(
        "source_kw", FLEET_SOURCES, ids=[s["source"] for s in FLEET_SOURCES]
    )
    @pytest.mark.parametrize("stop_when_finished", [False, True])
    def test_one_device_fleet_matches_engine(
        self, platform, source_kw, stop_when_finished
    ):
        from repro.fleet import FleetKernel

        config = fleet_config(
            platform, source_kw, stop_when_finished=stop_when_finished
        )
        result = FleetKernel([config]).run()[0]
        assert_fleet_identical(result, config)

    def test_mixed_fleet_matches_engine_per_device(self):
        """One heterogeneous kernel: every device exact, all at once."""
        from repro.fleet import FleetKernel

        configs = []
        for platform in sorted(PLATFORM_BUILDERS):
            for source_kw in ({"source": "wristwatch"}, {"source": "rf"}):
                for offset in (0.0, 0.25, 0.4001):
                    configs.append(fleet_config(
                        platform, source_kw, trace_offset_s=offset
                    ))
        # Heterogeneous sizing and seeding in the same kernel pass.
        configs.append(fleet_config(
            "nvp", {"source": "rf"},
            platform_seed=3, capacitance_f=300e-9,
        ))
        configs.append(fleet_config(
            "checkpoint", {"source": "solar"},
            capacitance_f=10e-6, stop_when_finished=True,
        ))
        configs.append(fleet_config(
            "wait", {"source": "solar"}, energy_margin=1.6,
        ))
        results = FleetKernel(configs).run()
        for config, result in zip(configs, results):
            assert_fleet_identical(result, config)

    def test_offset_device_equals_tail_trace_run(self):
        """An offset device IS the single engine on the trace tail."""
        from repro.exp.runner import build_trace
        from repro.fleet import FleetKernel

        config = fleet_config(
            "nvp", {"source": "wristwatch"}, trace_offset_s=0.3
        )
        fleet_result = FleetKernel([config]).run()[0]
        tail = build_trace(config).tail(0.3)
        single, _ = run_sim(
            PLATFORM_BUILDERS["nvp"], tail, use_fast_forward=None
        )
        assert_identical(fleet_result, single)

    def test_failed_wakes_match_engine(self):
        """A wake that fails on the crossing tick leaves the device
        dormant in every engine.  Here each restore costs 1% more than
        the start threshold its plan was made with."""
        from repro.exp.runner import build_simulator, build_trace
        from repro.fleet import FleetKernel

        def overpriced_restore(platform):
            needed = 1.01 * platform.thresholds(1e-4).start_threshold_j
            platform.controller.restore_energy_j = lambda: needed

        configs = [
            fleet_config("nvp", {"source": "wristwatch"}, seed=4,
                         trace_offset_s=offset)
            for offset in (0.0, 0.05, 0.3)
        ]
        kernel = FleetKernel(configs)
        for dev in kernel.devices:
            overpriced_restore(dev.platform)
        for config, result in zip(configs, kernel.run()):
            assert result.failed_restores > 0 and result.restores > 0
            trace = build_trace(config)
            if config["trace_offset_s"]:
                trace = trace.tail(config["trace_offset_s"])
            for fast, batch in ((False, False), (None, None)):
                simulator = build_simulator(
                    config, trace, use_fast_forward=fast,
                    use_exact_batch=batch,
                )
                overpriced_restore(simulator.platform)
                assert simulator.run().to_dict() == result.to_dict()

    @pytest.mark.parametrize("store", sorted(STORES))
    def test_only_a_capacitor_is_parked(self, store, monkeypatch):
        from repro.core.nvp import NVPPlatform
        from repro.exp import runner
        from repro.fleet import FleetKernel, kernel

        def build_platform(config, workload):
            return NVPPlatform(workload, STORES[store](), seed=0)

        monkeypatch.setattr(runner, "build_platform", build_platform)
        monkeypatch.setattr(kernel, "build_platform", build_platform)
        config = fleet_config("nvp", {"source": "wristwatch"})
        fleet = FleetKernel([config])
        assert fleet.devices[0].soa is (store == "ideal")
        result = fleet.run()[0]
        scalar = runner.build_simulator(
            config, use_fast_forward=False, use_exact_batch=False
        ).run()
        assert result.to_dict() == scalar.to_dict()

    def test_fleet_rejects_empty_fleet(self):
        from repro.fleet import FleetKernel

        with pytest.raises(ValueError):
            FleetKernel([])


class TestDormantCharging:
    """Every energy-buffered platform runs its dormant/wake cycle
    through the one :class:`~repro.system.fastpath.DormantCharging`:
    the scalar tick and the bulk fast-forward over the same dormant
    ticks leave the same bits."""

    DORMANT_PLATFORMS = ("nvp", "checkpoint", "wait")

    def test_platforms_inherit_the_dormant_cycle(self):
        import inspect

        from repro.system.fastpath import DormantCharging

        for name in self.DORMANT_PLATFORMS:
            cls = type(PLATFORM_BUILDERS[name](AbstractWorkload()))
            for method in ("tick", "fast_forward", "dormant_state"):
                assert method not in vars(cls), (cls, method)
                assert getattr(cls, method) is getattr(
                    DormantCharging, method
                )
            # No dormant-plan hook survives next to the mixin.
            assert not [attr for attr in dir(cls) if attr.endswith("_plan")]
            # The dormant branch (finished -> "done", charge, wake
            # test) is the mixin's alone.
            source = inspect.getsource(inspect.getmodule(cls))
            assert '"done"' not in source
            assert "self._wake()" not in source

    @staticmethod
    def dormant_platform(name, state, dt):
        """A fresh ``name`` platform brought into dormant ``state``."""
        if state == "done":
            platform = PLATFORM_BUILDERS[name](
                AbstractWorkload(total_units=1, instructions_per_unit=100)
            )
            for _ in range(10_000):
                if platform.finished:
                    break
                platform.tick(1e-3, dt)
        else:
            platform = PLATFORM_BUILDERS[name](AbstractWorkload())
            for _ in range(3):
                platform.tick(0.0, dt)
        assert platform.dormant_state() == state
        return platform

    @staticmethod
    def bits(platform):
        """The storage's float state, bit for bit, and the NVP's
        retention-age clock."""
        storage = {
            key: value.hex() for key, value in vars(platform.storage).items()
            if isinstance(value, float)
        }
        clock = (
            getattr(platform, "_off_ticks", None),
            getattr(platform, "_off_elapsed_s", None),
        )
        return storage, clock, platform.dormant_state()

    @pytest.mark.parametrize("name, state", [
        ("nvp", "off"), ("checkpoint", "off"), ("wait", "charge"),
        ("nvp", "done"), ("checkpoint", "done"), ("wait", "done"),
    ])
    def test_scalar_ticks_equal_one_fast_forward(self, name, state):
        dt = 1e-4
        trace = wristwatch_trace(3.0, seed=11)
        p_in = standard_rectifier().output_power_array(trace.samples_w)
        p_in = p_in.tolist()
        scalar = self.dormant_platform(name, state, dt)
        if state == "done":
            def no_target(dt_s):
                raise AssertionError("a finished platform read its target")

            scalar.wake_target_j = no_target
            ticks = 500
        else:
            # Count the dormant ticks before the one that wakes.
            probe = copy.deepcopy(scalar)
            ticks = 0
            while probe.tick(p_in[ticks], dt).state == state:
                ticks += 1
            assert ticks > 1
        bulk = copy.deepcopy(scalar)

        for index in range(ticks):
            assert scalar.tick(p_in[index], dt).state == state
        stop = ticks if state == "done" else len(p_in)
        assert bulk.fast_forward(p_in, 0, stop, dt) == [(state, ticks)]
        assert self.bits(bulk) == self.bits(scalar)
        if name == "nvp" and state == "off":
            assert scalar._off_ticks > ticks

        expected = "done" if state == "done" else "restore"
        assert scalar.tick(p_in[ticks], dt).state == expected
        assert bulk.tick(p_in[ticks], dt).state == expected
        assert self.bits(bulk) == self.bits(scalar)
        assert bulk.stats() == scalar.stats()

    def test_fleet_flush_keeps_the_retention_age_clock(self):
        """Off ticks a parked fleet row charged count toward the NVP's
        outage age: every restore ages the backup image by the same
        off time as in the scalar engine."""
        from repro.exp.runner import build_simulator, build_trace
        from repro.fleet import FleetKernel

        def record_ages(platform):
            ages = []
            age = platform.controller.age

            def recording(outage_s, rng):
                ages.append(outage_s)
                return age(outage_s, rng)

            platform.controller.age = recording
            return ages

        configs = [
            fleet_config("nvp", {"source": "wristwatch"}, mean_uw=30.0,
                         trace_offset_s=offset)
            for offset in (0.0, 0.3)
        ]
        kernel = FleetKernel(configs)
        fleet_ages = [record_ages(dev.platform) for dev in kernel.devices]
        kernel.run()
        for config, ages in zip(configs, fleet_ages):
            trace = build_trace(config)
            if config["trace_offset_s"]:
                trace = trace.tail(config["trace_offset_s"])
            simulator = build_simulator(
                config, trace, use_fast_forward=False, use_exact_batch=False
            )
            scalar_ages = record_ages(simulator.platform)
            simulator.run()
            assert len(scalar_ages) > 1
            assert ages == scalar_ages

    def test_finished_fleet_device_never_reads_its_target(self):
        """A finished device parks as a ``"done"`` row with an
        unreachable target, without asking its platform for one."""
        from repro.fleet import FleetKernel

        def guard(platform):
            target = platform.wake_target_j

            def checked(dt_s):
                assert not platform.finished, "finished device read target"
                return target(dt_s)

            platform.wake_target_j = checked

        configs = [
            fleet_config(name, {"source": "wristwatch"}, mean_uw=30.0,
                         kernel="crc", frames=1, stop_when_finished=False)
            for name in self.DORMANT_PLATFORMS
        ]
        kernel = FleetKernel(configs)
        for dev in kernel.devices:
            guard(dev.platform)
        for config, result in zip(configs, kernel.run()):
            assert result.completed and result.state_time_s["done"] > 0
            assert_fleet_identical(result, config)


class TestCompiledWorkloadRouting:
    """Engine-selection rules for compiled (NV16) workloads.

    The block engine makes these workloads batchable through the isa
    kernels, but observation still wins: an attached tick subscriber
    must force the scalar per-tick loop, bit-identically.  And the
    fleet kernel must route functional devices through the same batch
    path the single-device simulator uses.
    """

    @staticmethod
    def run_functional_sim(builder, trace, **sim_kwargs):
        from repro.workloads.suite import build_kernel, make_functional_workload

        workload = make_functional_workload(build_kernel("fir"), frames=2)
        simulator = SystemSimulator(
            trace,
            builder(workload),
            rectifier=standard_rectifier(),
            **sim_kwargs,
        )
        return simulator.run(), simulator

    def test_observed_run_forces_scalar_ticks(self):
        """A sim.tick subscriber pins compiled workloads to exact ticks."""
        trace = wristwatch_trace(2.0, seed=13)
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)
        observed, sim = self.run_functional_sim(build_nvp, trace, bus=bus)
        assert sim.ticks_batched == 0
        assert sim.ticks_fast_forwarded == 0
        assert sim.ticks_exact > 0
        assert len(seen) > 0
        plain, unobserved_sim = self.run_functional_sim(build_nvp, trace)
        assert unobserved_sim.ticks_batched > 0
        assert_identical(observed, plain)

    def test_fleet_routes_functional_device_through_batch_path(self):
        from repro.fleet import FleetKernel

        config = fleet_config(
            "nvp", {"source": "wristwatch"},
            duration_s=2.0, kernel="fir", frames=2,
        )
        kernel = FleetKernel([config])
        result = kernel.run()[0]
        assert kernel.ticks_batched > 0
        assert_fleet_identical(result, config)


class TestFleetTelemetryEquivalence:
    """Telemetry is read-only: per-device results stay bit-identical
    with it enabled, and its final snapshot is exactly the fold of the
    per-device exact-engine results — across every preset, source, and
    offset."""

    @staticmethod
    def all_configs():
        configs = []
        for platform in sorted(PLATFORM_BUILDERS):
            for source_kw in FLEET_SOURCES:
                for offset in (0.0, 0.25):
                    configs.append(fleet_config(
                        platform, source_kw, trace_offset_s=offset
                    ))
        return configs

    def test_results_bit_identical_and_aggregates_fold(self):
        from repro.fleet import FleetKernel, FleetTelemetry, replay_device

        configs = self.all_configs()
        telemetry = FleetTelemetry()
        observed = FleetKernel(
            list(configs), telemetry=telemetry
        ).run()
        plain = FleetKernel(list(configs)).run()

        exact = []
        for config, with_tel, without in zip(configs, observed, plain):
            # Telemetry on == telemetry off == single exact engine.
            assert with_tel.to_dict() == without.to_dict()
            single, _ = replay_device(config)
            assert with_tel.to_dict() == single.to_dict()
            exact.append(single)

        snap = telemetry.last
        assert snap["final"] is True
        assert snap["states"] == {"final": len(configs)}
        assert snap["devices"] == {
            "total": len(configs), "live": 0, "passive": 0,
            "final": len(configs),
        }
        # Population aggregates are the fold of the exact engine.
        assert snap["progress"]["forward_progress"] == sum(
            r.forward_progress for r in exact
        )
        assert snap["counters"]["backups"] == sum(r.backups for r in exact)
        assert snap["counters"]["restores"] == sum(
            r.restores for r in exact
        )
        assert snap["progress"]["run_s_total"] == pytest.approx(
            sum(r.state_time_s.get("run", 0.0) for r in exact)
        )

    def test_mid_run_state_counts_partition_the_fleet(self):
        """Every snapshot's state counts sum to the device total."""
        from repro.fleet import FleetKernel, FleetTelemetry
        from repro.obs.events import EventBus

        bus = EventBus()
        snapshots = []
        bus.subscribe(
            lambda event: snapshots.append(event.data["snapshot"]),
            names=(ev.FLEET_SAMPLE,),
        )
        configs = [
            fleet_config("nvp", {"source": "rf"},
                         trace_offset_s=0.1 * i)
            for i in range(4)
        ]
        FleetKernel(configs, bus=bus, telemetry=FleetTelemetry()).run()
        assert len(snapshots) >= 2
        for snap in snapshots:
            assert sum(snap["states"].values()) == len(configs)
            devices = snap["devices"]
            assert devices["final"] == snap["states"].get("final", 0)
            assert devices["live"] + devices["final"] == len(configs)
