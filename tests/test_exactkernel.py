"""The batched active-tick exact kernel (`repro.system.exactkernel`).

Four layers of pinning:

* **engine-selection matrix** — every combination of fast-forward
  on/off, exact-batch on/off, and a ``sim.tick`` subscriber must pick
  the documented engines (tick counters partition the run accordingly)
  and return bit-identical results;
* **declines** — every state a platform must not batch returns
  ``None`` and leaves the platform untouched;
* **kernel-vs-scalar properties** — ``storage_run`` advanced N ticks
  equals N scalar ``platform.tick`` calls field by field, across
  denormal/zero/blocked power inputs, and stops exactly at an
  energy-threshold landing;
* **cumsum discipline** — the oracle path's :func:`numpy.cumsum`
  integration reproduces every partial sum of the scalar ``+=`` loop
  bit for bit (the property the module docstring stakes its exactness
  claim on).
"""

import math

import numpy as np
import pytest

from repro.baselines.checkpoint import CheckpointPlatform
from repro.baselines.waitcompute import WaitComputePlatform
from repro.core.nvp import NVPPlatform
from repro.harvest.sources import square_trace, wristwatch_trace
from repro.obs.events import EventBus
from repro.storage.tiered import TieredStorage
from repro.system import exactkernel
from repro.system.peripherals import ADC_10BIT, PeripheralSet
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
from repro.workloads.suite import (
    KERNELS,
    build_kernel,
    make_functional_workload,
)

DT = 1e-4


def run_sim(builder, trace, *, fast=None, batch=None, bus=None):
    simulator = SystemSimulator(
        trace,
        builder(AbstractWorkload()),
        rectifier=standard_rectifier(),
        stop_when_finished=False,
        bus=bus,
        use_fast_forward=fast,
        use_exact_batch=batch,
    )
    return simulator.run(), simulator


class TestEngineSelectionMatrix:
    """fast_forward x exact_batch x sim.tick subscriber."""

    TRACE = staticmethod(lambda: square_trace(400e-6, 0.0, 2.0, 0.08, 3.0))

    @pytest.mark.parametrize("builder", [
        build_nvp, build_wait_compute, build_checkpoint, build_oracle,
    ], ids=["nvp", "wait", "checkpoint", "oracle"])
    @pytest.mark.parametrize("fast", [None, False], ids=["ff", "noff"])
    @pytest.mark.parametrize("batch", [None, False], ids=["batch", "nobatch"])
    @pytest.mark.parametrize("ticks_subscribed", [False, True],
                             ids=["free", "tick-sub"])
    def test_selection_and_bit_identity(
        self, builder, fast, batch, ticks_subscribed
    ):
        trace = self.TRACE()
        bus = None
        if ticks_subscribed:
            bus = EventBus()
            bus.subscribe(lambda event: None)  # subscribes to sim.tick too
        result, sim = run_sim(builder, trace, fast=fast, batch=batch, bus=bus)
        reference, _ = run_sim(builder, trace, fast=False, batch=False)
        assert result.to_dict() == reference.to_dict()
        # The three counters always partition the trace.
        assert (
            sim.ticks_fast_forwarded + sim.ticks_batched + sim.ticks_exact
            == len(trace)
        )
        # A sim.tick subscriber forces the scalar interpreter outright;
        # otherwise each engine runs iff its knob allows it.
        if ticks_subscribed:
            assert sim.ticks_fast_forwarded == 0
            assert sim.ticks_batched == 0
            assert sim.ticks_exact == len(trace)
            return
        dormant_capable = builder is not build_oracle
        if fast is False or not dormant_capable:
            assert sim.ticks_fast_forwarded == 0
        else:
            assert sim.ticks_fast_forwarded > 0
        if batch is False:
            assert sim.ticks_batched == 0
        else:
            assert sim.ticks_batched > 0

    def test_functional_workloads_batch_through_isa_kernel(self):
        """NV16 kernels batch via the block engine + isa kernels."""
        trace = wristwatch_trace(0.3, seed=3)
        platform = build_nvp(
            make_functional_workload(build_kernel("fir"), frames=2)
        )
        simulator = SystemSimulator(
            trace, platform, rectifier=standard_rectifier(),
            stop_when_finished=False,
        )
        simulator.run()
        assert simulator.ticks_batched > 0

    def test_batchable_workload_is_a_capability_protocol(self):
        """Modes come from supports_exact_batch, not an exact-type check.

        A subclass that overrides neither ``advance`` nor ``finished``
        keeps its base class's mode (the PR 8 exact-type check silently
        dropped such subclasses to the scalar path); overriding either
        hook opts the subclass out.
        """
        class Custom(AbstractWorkload):
            pass

        class OverridesAdvance(AbstractWorkload):
            def advance(self, time_budget_s):
                return super().advance(time_budget_s)

        class OverridesFinished(AbstractWorkload):
            @property
            def finished(self):
                return super().finished

        def mode(workload):
            return getattr(workload, "supports_exact_batch", None)

        assert mode(AbstractWorkload()) == "recurrence"
        assert mode(Custom()) == "recurrence"
        assert mode(OverridesAdvance()) is None
        assert mode(OverridesFinished()) is None
        assert mode(
            make_functional_workload(build_kernel("fir"), frames=1)
        ) == "isa"
        assert mode(object()) is None


# -- when exact_batch declines -------------------------------------------------


def powered_on(platform, power_w=400e-6):
    """``platform`` scalar-ticked on steady power until it is on."""
    for _ in range(100_000):
        if platform._state == "on":
            return platform
        platform.tick(power_w, DT)
    raise AssertionError("platform never powered on")


def finished(platform, power_w=400e-6):
    """``platform`` scalar-ticked on steady power until its work is done."""
    for _ in range(100_000):
        if platform.finished:
            return platform
        platform.tick(power_w, DT)
    raise AssertionError("workload never finished")


def tiny_workload():
    return AbstractWorkload(total_units=1, instructions_per_unit=50)


class OverridesAdvance(AbstractWorkload):
    def advance(self, time_budget_s):
        return super().advance(time_budget_s)


def tiered_storage():
    return TieredStorage(supercap(), supercap())


def fir_workload():
    return make_functional_workload(build_kernel("fir"), frames=1)


#: ``case -> builder`` of a platform whose next ticks must not batch.
DECLINES = {
    "nvp-off": lambda: build_nvp(AbstractWorkload()),
    "wait-off": lambda: build_wait_compute(AbstractWorkload()),
    "checkpoint-off": lambda: build_checkpoint(AbstractWorkload()),
    "nvp-finished": lambda: finished(build_nvp(tiny_workload())),
    "wait-finished": lambda: finished(build_wait_compute(tiny_workload())),
    "checkpoint-finished": lambda: finished(
        build_checkpoint(tiny_workload())
    ),
    "oracle-finished": lambda: finished(build_oracle(tiny_workload())),
    "nvp-governor": lambda: powered_on(NVPPlatform(
        AbstractWorkload(), nvp_capacitor(),
        governor=lambda energy_j, plan, dt_s: 1.0,
    )),
    "nvp-peripherals": lambda: powered_on(NVPPlatform(
        AbstractWorkload(), nvp_capacitor(),
        peripherals=PeripheralSet([ADC_10BIT]),
    )),
    "nvp-tiered": lambda: powered_on(
        NVPPlatform(AbstractWorkload(), tiered_storage())
    ),
    "wait-tiered": lambda: powered_on(
        WaitComputePlatform(AbstractWorkload(), tiered_storage())
    ),
    "checkpoint-tiered": lambda: powered_on(
        CheckpointPlatform(AbstractWorkload(), tiered_storage())
    ),
    "nvp-overrides-advance": lambda: powered_on(
        build_nvp(OverridesAdvance())
    ),
    "wait-overrides-advance": lambda: powered_on(
        build_wait_compute(OverridesAdvance())
    ),
    "checkpoint-overrides-advance": lambda: powered_on(
        build_checkpoint(OverridesAdvance())
    ),
    "oracle-overrides-advance": lambda: build_oracle(OverridesAdvance()),
    "wait-functional": lambda: powered_on(build_wait_compute(fir_workload())),
}


def fingerprint(platform):
    """Every piece of platform state a batch could touch."""
    def scalars(obj):
        return {
            key: value for key, value in vars(obj).items()
            if isinstance(value, (bool, int, float, str, type(None)))
        }

    storage = getattr(platform, "storage", None)
    return (
        scalars(platform),
        getattr(platform, "_plan", None),
        scalars(platform.ledger),
        None if storage is None else (storage.energy_j, scalars(storage)),
        platform.workload.snapshot(),
        scalars(platform.workload),
    )


class TestBatchDeclines:
    @pytest.mark.parametrize("case", sorted(DECLINES))
    def test_declines_and_leaves_the_platform_untouched(self, case):
        platform = DECLINES[case]()
        powers = [400e-6] * 2000
        before = fingerprint(platform)
        assert platform.exact_batch(powers, 0, len(powers), DT) is None
        assert fingerprint(platform) == before


# -- kernel-vs-scalar properties ---------------------------------------------


def warmed_nvp(powers):
    """A build_nvp platform scalar-ticked until powered on.

    Returns ``(platform, index)`` — deterministic, so calling it twice
    with the same powers yields bit-identical twins.
    """
    platform = build_nvp(AbstractWorkload())
    index = 0
    while platform._state != "on":
        platform.tick(powers[index], DT)
        index += 1
    return platform, index


STORAGE_FIELDS = (
    "energy_j", "total_charged_j", "total_leaked_j", "total_wasted_j",
    "total_delivered_j",
)


def assert_platforms_equal(a, b):
    for field in STORAGE_FIELDS:
        assert getattr(a.storage, field) == getattr(b.storage, field), field
    assert a.consumed_j == b.consumed_j
    assert a._stall_s == b._stall_s
    assert a.ledger.volatile == b.ledger.volatile
    assert a.workload._retired == b.workload._retired
    assert a.workload._time_credit_s == b.workload._time_credit_s


class TestStorageRunProperties:
    @pytest.mark.parametrize("power_kind", [
        "steady", "noisy", "zero", "denormal", "blocked_mix",
    ])
    def test_batch_equals_n_scalar_ticks(self, power_kind):
        """exact_batch over N ticks == N scalar platform.tick calls."""
        warm = [80e-6] * 4000
        rng = np.random.default_rng(11)
        if power_kind == "steady":
            tail = [80e-6] * 2000
        elif power_kind == "noisy":
            tail = rng.uniform(0.0, 200e-6, size=2000).tolist()
        elif power_kind == "zero":
            tail = [0.0] * 2000
        elif power_kind == "denormal":
            tail = [5e-324, 1e-310, 0.0, 2.5e-320] * 500
        else:  # below the converter's minimum current: blocked input
            tail = ([1e-9, 0.0, 80e-6] * 700)[:2000]
        powers = warm + tail

        batched, start = warmed_nvp(powers)
        scalar, start2 = warmed_nvp(powers)
        assert start == start2
        runs = batched.exact_batch(powers, start, len(powers), DT)
        assert runs is not None and runs[0][0] == "run"
        ticks = runs[0][1]
        assert ticks > 0
        for i in range(start, start + ticks):
            report = scalar.tick(powers[i], DT)
            assert report.state == "run"
        assert_platforms_equal(batched, scalar)

    def test_exact_threshold_landing_stops_before_the_crossing_tick(self):
        """A batch whose energy lands exactly on the stop threshold
        consumes exactly the ticks before the pre-tick check fires."""
        powers = [80e-6] * 4000 + [0.0] * 3000
        probe, start = warmed_nvp(powers)
        trajectory = []
        index = start
        while True:
            report = probe.tick(powers[index], DT)
            if report.state != "run":
                break
            trajectory.append(probe.storage.energy_j)
            index += 1
        k = len(trajectory) // 2
        landing = trajectory[k]  # energy after k+1 run ticks

        fresh, start2 = warmed_nvp(powers)
        assert start2 == start
        ticks = exactkernel.storage_run(
            fresh, powers, start, len(powers), DT, stop_energy_j=landing
        )
        # Pre-tick check: the tick that *starts* at the landing energy
        # is an event tick, so exactly k+1 ticks batch.
        assert ticks == k + 1
        assert fresh.storage.energy_j == landing

    def test_deficit_tick_is_left_for_the_scalar_path(self):
        """The collapse tick's candidate values are fully discarded.

        Wait-and-compute's stops have no energy threshold, so with its
        store cut below one unit's energy it runs down to a genuine
        deficit on a dead trace before the unit boundary.
        """
        from repro.storage.capacitor import Capacitor

        def warmed():
            platform = WaitComputePlatform(AbstractWorkload(), Capacitor(4.7e-6))
            for _ in range(10_000):
                if platform._state == "on":
                    break
                platform.tick(80e-6, DT)
            assert platform._state == "on"
            platform.storage.set_energy(0.25 * platform.unit_energy_target_j())
            return platform

        powers = [0.0] * 50000
        batched, scalar = warmed(), warmed()
        ticks = exactkernel.storage_run(
            batched, powers, 0, len(powers), DT, stop_at_unit_boundary=True
        )
        # Without a stop threshold the batch runs until the deficit.
        assert 0 < ticks < len(powers)
        assert batched.workload.units_completed == 0
        for i in range(ticks):
            report = scalar.tick(powers[i], DT)
            assert report.state == "run"
        assert_platforms_equal(batched, scalar)
        # The very next tick is the collapse both engines agree on.
        batched.tick(powers[ticks], DT)
        scalar.tick(powers[ticks], DT)
        assert batched._state == scalar._state == "off"
        assert batched.ledger.rollbacks == scalar.ledger.rollbacks == 1
        assert_platforms_equal(batched, scalar)


class TestOracleCumsumDiscipline:
    def test_cumsum_matches_scalar_partial_sums(self):
        """np.cumsum over 1-D float64 == the left-to-right += loop."""
        rng = np.random.default_rng(7)
        values = np.concatenate([
            rng.uniform(0.0, 1e-9, size=4096),
            np.array([5e-324, 1e-310, 0.0, 2.5e-320, 1e-300]),
            rng.uniform(0.0, 1e-9, size=4096),
        ])
        seeded = np.empty(len(values) + 1)
        seeded[0] = 0.123456789e-3
        seeded[1:] = values
        partial = np.cumsum(seeded)
        accumulator = seeded[0]
        for i, value in enumerate(values):
            accumulator += value
            assert accumulator == partial[i + 1]

    def test_oracle_run_matches_scalar_ticking(self):
        batched = build_oracle(AbstractWorkload())
        scalar = build_oracle(AbstractWorkload())
        ticks = exactkernel.oracle_run(batched, 0, 5000, DT)
        assert ticks == 5000
        for _ in range(ticks):
            scalar.tick(0.0, DT)
        assert batched.consumed_j == scalar.consumed_j
        assert batched.workload._retired == scalar.workload._retired
        assert (
            batched.workload._time_credit_s == scalar.workload._time_credit_s
        )
        assert batched.ledger.persistent == scalar.ledger.persistent
        assert batched.ledger.volatile == scalar.ledger.volatile
        assert batched.ledger.commits == scalar.ledger.commits

    def test_oracle_run_stops_before_the_finishing_tick(self):
        workload = AbstractWorkload(total_units=1, instructions_per_unit=500)
        batched = build_oracle(workload)
        ticks = exactkernel.oracle_run(batched, 0, 5000, DT)
        assert not batched.finished
        report = batched.tick(0.0, DT)  # the finishing tick, scalar
        assert batched.finished
        assert report.state == "run"
        scalar = build_oracle(
            AbstractWorkload(total_units=1, instructions_per_unit=500)
        )
        count = 0
        while not scalar.finished:
            scalar.tick(0.0, DT)
            count += 1
        assert count == ticks + 1
        assert batched.consumed_j == scalar.consumed_j


class TestFleetBatching:
    def test_fleet_routes_active_ticks_through_the_kernel(self):
        from repro.fleet import FleetKernel, replay_device, resolve_device_config

        config = resolve_device_config(
            {"platform": "nvp", "source": "wristwatch", "duration_s": 1.0}
        )
        kernel = FleetKernel([config])
        result = kernel.run()[0]
        assert kernel.ticks_batched > 0
        single, _ = replay_device(config)
        assert result.to_dict() == single.to_dict()


class TestIsaKernelEquivalence:
    """Functional (NV16) workloads through the isa batch kernels.

    The block engine makes compiled workloads batchable; these tests
    pin the sim-level contract: batched runs are bit-identical to
    scalar ticking across platforms, traces and completion modes, the
    finishing tick is consumed in-batch, synthesized event streams
    match, and unit-boundary platforms stay scalar.
    """

    @staticmethod
    def run_kernel_sim(builder, trace, kernel="fir", frames=2, batch=None,
                       swf=False, bus=None, **sim_kwargs):
        workload = make_functional_workload(build_kernel(kernel), frames=frames)
        simulator = SystemSimulator(
            trace,
            builder(workload),
            rectifier=standard_rectifier(),
            stop_when_finished=swf,
            bus=bus,
            use_exact_batch=batch,
            **sim_kwargs,
        )
        return simulator.run(), simulator

    @pytest.mark.parametrize("builder", [
        build_nvp, build_checkpoint, build_oracle,
    ])
    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    @pytest.mark.parametrize("swf", [False, True])
    def test_batched_run_bit_identical(self, builder, kernel, swf):
        trace = wristwatch_trace(3.0, seed=7)
        batched, sim = self.run_kernel_sim(
            builder, trace, kernel=kernel, batch=None, swf=swf
        )
        scalar, _ = self.run_kernel_sim(
            builder, trace, kernel=kernel, batch=False, swf=swf
        )
        assert sim.ticks_batched > 0
        assert batched.to_dict() == scalar.to_dict()

    def test_finishing_tick_consumed_in_batch(self):
        """The oracle's whole run — completion included — batches."""
        trace = wristwatch_trace(1.0, seed=3)
        result, sim = self.run_kernel_sim(
            build_oracle, trace, batch=None, swf=True
        )
        assert result.completed
        assert sim.ticks_exact == 0
        assert sim.ticks_batched > 0

    def test_wait_compute_keeps_functional_workloads_scalar(self):
        """Unit-boundary commits can't be pre-checked: no isa batching."""
        trace = wristwatch_trace(2.0, seed=5)
        batched, sim = self.run_kernel_sim(
            build_wait_compute, trace, batch=None
        )
        scalar, _ = self.run_kernel_sim(build_wait_compute, trace, batch=False)
        assert sim.ticks_batched == 0
        assert batched.to_dict() == scalar.to_dict()

    @pytest.mark.parametrize("builder", [build_nvp, build_checkpoint])
    def test_synthesized_event_streams_identical(self, builder):
        from repro.obs import events as ev

        trace = wristwatch_trace(2.0, seed=9)

        def stream(batch):
            bus = EventBus()
            log = bus.record(names=ev.NON_TICK_EVENT_NAMES)
            result, _ = self.run_kernel_sim(
                builder, trace, batch=batch, bus=bus, sample_stride=500,
            )
            return [(e.name, e.t_s, e.seq, e.data) for e in log], result

        scalar_events, scalar_result = stream(False)
        assert scalar_events
        batched_events, batched_result = stream(None)
        assert batched_events == scalar_events
        assert batched_result.to_dict() == scalar_result.to_dict()

    def test_fleet_batches_functional_devices(self):
        from repro.fleet import FleetKernel, replay_device, resolve_device_config

        configs = [
            resolve_device_config({
                "platform": platform, "source": "wristwatch",
                "duration_s": 2.0, "kernel": "fir", "frames": 2,
                "stop_when_finished": swf,
            })
            for platform in ("nvp", "checkpoint", "oracle")
            for swf in (False, True)
        ]
        kernel = FleetKernel(configs)
        results = kernel.run()
        assert kernel.ticks_batched > 0
        for config, result in zip(configs, results):
            single, _ = replay_device(config)
            assert result.to_dict() == single.to_dict(), config["platform"]
