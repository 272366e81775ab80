"""Tests for the system simulator, thresholds, and presets."""

import pytest

from repro.baselines.oracle import OraclePlatform
from repro.harvest.rectifier import Rectifier
from repro.harvest.sources import constant_trace, square_trace
from repro.system.presets import (
    build_checkpoint,
    build_nvp,
    build_oracle,
    build_wait_compute,
    checkpoint_capacitor,
    nvp_capacitor,
    standard_rectifier,
    supercap,
)
from repro.system.simulator import RunWalk, SystemSimulator, TickReport
from repro.system.thresholds import ThresholdPlan, plan_thresholds
from repro.workloads.base import AbstractWorkload


class TestThresholdPlanning:
    def test_ordering(self):
        plan = plan_thresholds(1e-9, 2e-9, 200e-6, 1e-4)
        assert plan.start_threshold_j > plan.backup_threshold_j > 0

    def test_margin_scales_backup_threshold(self):
        lo = plan_thresholds(1e-9, 2e-9, 200e-6, 1e-4, backup_margin=1.0)
        hi = plan_thresholds(1e-9, 2e-9, 200e-6, 1e-4, backup_margin=3.0)
        assert hi.backup_threshold_j == pytest.approx(3 * lo.backup_threshold_j)

    def test_start_includes_restore_and_reserve(self):
        plan = plan_thresholds(
            1e-9, 2e-9, 200e-6, 1e-4, backup_margin=1.0, run_reserve_ticks=0.0
        )
        assert plan.start_threshold_j == pytest.approx(
            plan.backup_threshold_j + 2e-9
        )

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"backup_cost_j": -1.0},
            {"run_power_w": -1.0},
            {"tick_s": 0.0},
            {"backup_margin": 0.9},
            {"run_reserve_ticks": -1.0},
        ],
    )
    def test_validation(self, kwargs):
        defaults = dict(
            backup_cost_j=1e-9, restore_cost_j=1e-9, run_power_w=1e-4, tick_s=1e-4
        )
        defaults.update(kwargs)
        with pytest.raises(ValueError):
            plan_thresholds(**defaults)

    def test_plan_ordering_enforced(self):
        with pytest.raises(ValueError):
            ThresholdPlan(
                backup_threshold_j=2.0,
                start_threshold_j=1.0,
                backup_cost_j=1.0,
                restore_cost_j=1.0,
            )


class TestSimulator:
    def test_state_times_sum_to_duration(self):
        trace = square_trace(1000e-6, 0.0, 0.1, 0.5, 1.0)
        platform = build_nvp(AbstractWorkload())
        result = SystemSimulator(trace, platform, stop_when_finished=False).run()
        assert sum(result.state_time_s.values()) == pytest.approx(result.duration_s)
        assert result.duration_s == pytest.approx(trace.duration_s)

    def test_stop_when_finished(self):
        workload = AbstractWorkload(total_units=1, instructions_per_unit=100)
        platform = build_oracle(workload)
        trace = constant_trace(1e-6, 10.0)
        result = SystemSimulator(trace, platform).run()
        assert result.completed
        assert result.duration_s < 1.0
        assert result.completion_time_s == pytest.approx(result.duration_s)

    def test_run_to_end_when_not_stopping(self):
        workload = AbstractWorkload(total_units=1, instructions_per_unit=100)
        platform = build_oracle(workload)
        trace = constant_trace(1e-6, 0.5)
        result = SystemSimulator(trace, platform, stop_when_finished=False).run()
        assert result.completed
        assert result.duration_s == pytest.approx(0.5)

    def test_rectifier_reduces_harvested_energy(self):
        trace = constant_trace(100e-6, 0.2)
        raw = SystemSimulator(
            trace, OraclePlatform(AbstractWorkload()), stop_when_finished=False
        ).run()
        rectified = SystemSimulator(
            trace,
            OraclePlatform(AbstractWorkload()),
            rectifier=Rectifier(),
            stop_when_finished=False,
        ).run()
        assert rectified.harvested_j < raw.harvested_j

    def test_result_summary_readable(self):
        workload = AbstractWorkload(total_units=1, instructions_per_unit=100)
        result = SystemSimulator(
            constant_trace(1e-6, 1.0), build_oracle(workload)
        ).run()
        text = result.summary()
        assert "oracle" in text
        assert "FP=" in text

    def test_extras_carried_through(self):
        trace = constant_trace(100e-6, 0.05)
        platform = build_nvp(AbstractWorkload())
        result = SystemSimulator(trace, platform, stop_when_finished=False).run()
        assert "volatile_at_end" in result.extras


class TestPresets:
    def test_capacitor_sizes(self):
        assert nvp_capacitor().capacitance_f == pytest.approx(150e-9)
        assert supercap().capacitance_f == pytest.approx(47e-6)
        assert checkpoint_capacitor().capacitance_f == pytest.approx(4.7e-6)

    def test_supercap_models_published_losses(self):
        cap = supercap()
        assert cap.min_charge_current_a == pytest.approx(20e-6)
        assert cap.leak_resistance_ohm <= 1e6

    def test_nvp_capacitor_is_low_loss(self):
        cap = nvp_capacitor()
        assert cap.min_charge_current_a == 0.0
        assert cap.leak_resistance_ohm > supercap().leak_resistance_ohm

    def test_builders_return_labelled_platforms(self):
        assert build_nvp(AbstractWorkload()).label == "nvp"
        assert build_wait_compute(AbstractWorkload()).label == "wait-compute"
        assert build_checkpoint(AbstractWorkload()).label == "sw-checkpoint"
        assert build_oracle(AbstractWorkload()).label == "oracle"

    def test_standard_rectifier_parameters(self):
        rect = standard_rectifier()
        assert rect.eta_max == pytest.approx(0.85)
        assert rect.efficiency(1e-7) == 0.0  # below cut-in


class TestTickReport:
    def test_defaults(self):
        report = TickReport("off")
        assert report.instructions == 0


class ScriptedPlatform:
    """Ticks report ``states`` in turn; ``batch`` answers each probe
    with ``[("run", n)]`` runs, or ``None`` where ``n`` is 0."""

    label = "scripted"
    finished = False

    def __init__(self, states, batch):
        self.states = list(states)
        self.batch = list(batch)
        self.calls = []

    def tick(self, p_in_w, dt_s):
        self.calls.append("tick")
        return TickReport(self.states.pop(0))

    def exact_batch(self, p_in_w, start, stop, dt_s):
        self.calls.append("probe")
        ticks = self.batch.pop(0)
        return [("run", ticks)] if ticks else None


class TestRunWalk:
    """The probe arming both engines share, against scripted calls."""

    @staticmethod
    def walk(platform, steps):
        walk = RunWalk(platform, [0.0] * 100, 0, 100, 1e-4, ["exact_batch"])
        for _ in range(steps):
            walk.step()
        return walk

    def test_tick_after_a_bulk_run_is_exact_and_rearms(self):
        # The tick after each bulk run keeps the run's state, so only
        # the rejoin rule re-arms the probe.
        platform = ScriptedPlatform(["run"] * 3, [2, 2, 2])
        walk = self.walk(platform, 6)
        assert platform.calls == ["probe", "tick"] * 3
        assert walk.index == 9
        assert walk.bulk_ticks == {"exact_batch": 6}
        assert (walk.state, walk.ticks) == ("run", 9)

    def test_miss_disarms_until_a_transition(self):
        platform = ScriptedPlatform(
            ["run", "run", "run", "off", "run"], [0, 0, 3]
        )
        walk = self.walk(platform, 5)
        # The first tick is a transition (from no state), so the
        # second probe runs; the miss after it holds until "off".
        assert platform.calls == [
            "probe", "tick", "probe", "tick", "tick", "tick", "probe",
        ]
        assert walk.index == 7
        assert walk.flush() == pytest.approx({"run": 6e-4, "off": 1e-4})

    def test_accounted_runs_make_the_next_step_exact(self):
        platform = ScriptedPlatform(["off", "run", "run"], [0, 4])
        walk = self.walk(platform, 1)
        walk.account([("off", 5)])
        walk.step()
        walk.account([])
        walk.step()
        walk.step()
        assert platform.calls == ["probe", "tick", "tick", "tick", "probe"]
        assert walk.index == 12
        assert (walk.state, walk.ticks) == ("run", 6)
        assert walk.state_time == {"off": 6 * 1e-4}
