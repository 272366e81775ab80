"""Integration tests: the observability layer wired through the stack."""

import json

import pytest

from repro.harvest.outage import DEFAULT_THRESHOLD_W, analyze_outages
from repro.harvest.sources import square_trace, wristwatch_trace
from repro.harvest.traces import PowerTrace
from repro.obs import events as ev
from repro.obs.events import EventBus
from repro.obs.export import chrome_trace, load_chrome_trace, write_chrome_trace
from repro.obs.metrics import MetricsRegistry
from repro.obs.summary import LiveSummary
from repro.policy.dpm import EnergyBandGovernor
from repro.system.presets import build_nvp, standard_rectifier
from repro.system.simulator import SystemSimulator
from repro.system.telemetry import STATE_CODES, Telemetry
from repro.workloads.base import AbstractWorkload


def run_instrumented(duration_s=1.0, seed=7, **sim_kwargs):
    bus = EventBus()
    log = bus.record()
    trace = wristwatch_trace(duration_s, seed=seed)
    result = SystemSimulator(
        trace,
        build_nvp(AbstractWorkload()),
        rectifier=standard_rectifier(),
        stop_when_finished=False,
        bus=bus,
        **sim_kwargs,
    ).run()
    return result, log, bus


class TestSimulatorEvents:
    def test_lifecycle_events_bracket_the_run(self):
        _, log, _ = run_instrumented()
        names = log.names()
        assert names[0] == ev.SIM_BEGIN
        assert names[-1] == ev.SIM_END

    def test_backup_restore_outage_events_present(self):
        result, log, _ = run_instrumented()
        counts = log.counts()
        assert counts[ev.BACKUP_COMMIT] == result.backups
        assert counts[ev.RESTORE_COMMIT] == result.restores
        assert counts[ev.OUTAGE_BEGIN] > 0
        assert counts[ev.WAKE] == counts[ev.RESTORE_COMMIT] + counts.get(
            "wake_cold", 0
        ) or counts[ev.WAKE] >= counts[ev.RESTORE_COMMIT]

    def test_event_counts_match_platform_counters(self):
        result, log, _ = run_instrumented()
        counts = log.counts()
        assert counts[ev.BACKUP_START] == result.backups + result.failed_backups
        assert (
            counts[ev.RESTORE_START]
            == result.restores + result.failed_restores
        )

    def test_state_transitions_start_from_off(self):
        _, log, _ = run_instrumented()
        transitions = log.filter(ev.STATE_TRANSITION)
        assert transitions[0].data["prev"] is None
        assert transitions[0].data["state"] == "off"

    def test_events_are_time_ordered(self):
        _, log, _ = run_instrumented()
        times = [event.t_s for event in log]
        assert times == sorted(times)

    def test_results_identical_with_and_without_bus(self):
        plain = SystemSimulator(
            wristwatch_trace(1.0, seed=7),
            build_nvp(AbstractWorkload()),
            rectifier=standard_rectifier(),
            stop_when_finished=False,
        ).run()
        observed, _, _ = run_instrumented(1.0, seed=7)
        assert observed.forward_progress == plain.forward_progress
        assert observed.backups == plain.backups
        assert observed.extras == plain.extras


class TestDisabledBusOverhead:
    def test_no_event_allocated_without_bus(self, monkeypatch):
        """A simulation without a bus must never construct an Event."""
        def explode(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("Event constructed without a bus")

        monkeypatch.setattr(ev, "Event", explode)
        result = SystemSimulator(
            wristwatch_trace(0.5, seed=3),
            build_nvp(AbstractWorkload()),
            rectifier=standard_rectifier(),
            stop_when_finished=False,
        ).run()
        assert result.forward_progress > 0

    def test_tick_events_skipped_without_tick_subscriber(self):
        _, log, _ = run_instrumented(0.2)
        # bus.record() subscribes to everything, so ticks are present...
        assert ev.TICK in log.counts()
        # ...but a bus with only named subscribers skips them.
        bus = EventBus()
        named = bus.record(names=(ev.BACKUP_COMMIT,))
        SystemSimulator(
            wristwatch_trace(0.2, seed=3),
            build_nvp(AbstractWorkload()),
            rectifier=standard_rectifier(),
            stop_when_finished=False,
            bus=bus,
        ).run()
        assert set(named.names()) == {ev.BACKUP_COMMIT}


class TestChromeTraceFromRealRun:
    def test_full_run_produces_valid_trace(self, tmp_path):
        _, log, _ = run_instrumented(1.0)
        path = str(tmp_path / "run.json")
        write_chrome_trace(log, path)
        trace = load_chrome_trace(path)
        names = {event["name"] for event in trace}
        assert "backup" in names
        assert "restore" in names
        assert "outage" in names
        phases = {event["ph"] for event in trace}
        assert {"X", "M"} <= phases

    def test_spans_cover_all_platform_states_seen(self):
        _, log, _ = run_instrumented(1.0)
        trace = chrome_trace(log)
        span_names = {
            e["name"] for e in trace if e.get("cat") == "state"
        }
        states = {
            event.data["state"] for event in log.filter(ev.STATE_TRANSITION)
        }
        assert span_names == states


class TestTelemetrySubscriberParity:
    def test_bus_telemetry_matches_legacy_recorder(self):
        trace = wristwatch_trace(1.0, seed=11)

        # The series a per-tick loop records by hand.
        legacy = Telemetry()
        platform = build_nvp(AbstractWorkload())
        for index, p_raw in enumerate(trace.samples_w):
            p_in = standard_rectifier().output_power(float(p_raw))
            report = platform.tick(p_in, trace.dt_s)
            legacy.times_s.append(index * trace.dt_s)
            legacy.states.append(STATE_CODES[report.state])
            legacy.energies_j.append(float(platform.storage.energy_j))
            legacy.instructions.append(report.instructions)

        via_bus = Telemetry()
        SystemSimulator(
            wristwatch_trace(1.0, seed=11),
            build_nvp(AbstractWorkload()),
            rectifier=standard_rectifier(),
            stop_when_finished=False,
            telemetry=via_bus,
        ).run()

        assert via_bus.states == legacy.states
        assert via_bus.instructions == legacy.instructions
        assert via_bus.times_s == legacy.times_s
        assert via_bus.energies_j == pytest.approx(legacy.energies_j)

    def test_decimation_still_honoured(self):
        telemetry = Telemetry(decimation=10)
        SystemSimulator(
            wristwatch_trace(0.5, seed=3),
            build_nvp(AbstractWorkload()),
            rectifier=standard_rectifier(),
            stop_when_finished=False,
            telemetry=telemetry,
        ).run()
        assert 0 < len(telemetry) <= 500 / 10 * 10  # 5000 ticks / 10


class TestChargeStateCode:
    def test_charge_and_off_are_distinct(self):
        assert STATE_CODES["charge"] != STATE_CODES["off"]

    def test_strip_renders_charge_glyph(self):
        from repro.system.presets import build_wait_compute

        telemetry = Telemetry()
        trace = square_trace(800e-6, 0.0, 0.05, 0.5, duration_s=2.0)
        SystemSimulator(
            trace,
            build_wait_compute(AbstractWorkload()),
            stop_when_finished=False,
            telemetry=telemetry,
        ).run()
        assert STATE_CODES["charge"] in telemetry.states
        strip = telemetry.render_strip(60)
        assert "~" in strip
        assert "~ charge" in strip

    def test_duty_cycle_ignores_charging(self):
        telemetry = Telemetry()
        telemetry._sample(0.0, "charge", 0.0, 0)
        telemetry._sample(1.0, "run", 0.0, 5)
        assert telemetry.duty_cycle() == 0.5


class TestOutageEventParity:
    """Either engine's outage events equal the batch analysis of the
    rectified trace, which shares no code with the event path beyond
    ``outage_intervals``."""

    TRACES = {
        "wristwatch": lambda: wristwatch_trace(1.0, seed=5),
        "square_outage": lambda: square_trace(400e-6, 0.0, 2.0, 0.08, 3.0),
    }

    @pytest.mark.parametrize("trace_name", sorted(TRACES))
    @pytest.mark.parametrize("engine", ["exact", "bulk"])
    def test_events_match_batch_analysis(self, trace_name, engine):
        trace = self.TRACES[trace_name]()
        rectified = PowerTrace(
            standard_rectifier().output_power_array(trace.samples_w),
            trace.dt_s,
        )
        stats = analyze_outages(rectified, DEFAULT_THRESHOLD_W)
        bus = EventBus()
        log = bus.record(names=(ev.OUTAGE_BEGIN, ev.OUTAGE_END))
        knob = False if engine == "exact" else None
        simulator = SystemSimulator(
            trace,
            build_nvp(AbstractWorkload()),
            rectifier=standard_rectifier(),
            stop_when_finished=False,
            bus=bus,
            use_fast_forward=knob,
            use_exact_batch=knob,
        )
        simulator.run()
        if engine == "exact":
            assert simulator.ticks_exact == len(trace)
        else:
            assert simulator.ticks_exact < len(trace)
        assert stats.count > 0
        assert len(log.filter(ev.OUTAGE_BEGIN)) == stats.count
        durations = [
            event.data["duration_s"] for event in log.filter(ev.OUTAGE_END)
        ]
        assert durations == pytest.approx(list(stats.durations_s), rel=1e-9)


class TestLiveSummary:
    def test_summary_statistics(self):
        bus = EventBus()
        summary = LiveSummary().attach(bus)
        SystemSimulator(
            wristwatch_trace(1.0, seed=7),
            build_nvp(AbstractWorkload()),
            rectifier=standard_rectifier(),
            stop_when_finished=False,
            bus=bus,
        ).run()
        assert 0 < summary.duty_cycle < 1
        assert summary.backup_success_rate == 1.0
        assert summary.outages > 0
        rendered = summary.render()
        assert "duty cycle" in rendered
        assert "backup success" in rendered

    @pytest.mark.parametrize("interval", [0.0, -1.0, float("nan"),
                                          float("inf")])
    def test_rejects_bad_interval(self, interval):
        with pytest.raises(ValueError, match="interval"):
            LiveSummary(interval_s=interval)

    def test_progress_lines_at_interval(self, capsys):
        bus = EventBus()
        LiveSummary(interval_s=0.25).attach(bus)
        SystemSimulator(
            wristwatch_trace(1.0, seed=7),
            build_nvp(AbstractWorkload()),
            rectifier=standard_rectifier(),
            stop_when_finished=False,
            bus=bus,
        ).run()
        lines = [
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("[")
        ]
        assert len(lines) == 3  # 0.25, 0.5, 0.75 (1.0 never reached)


class TestPolicyEvents:
    def test_energy_band_governor_emits_on_state_change(self):
        bus = EventBus()
        log = bus.record()
        platform = build_nvp(AbstractWorkload())
        platform.governor = EnergyBandGovernor.for_capacitor(
            platform.storage, bus=bus
        )
        SystemSimulator(
            wristwatch_trace(1.0, seed=7),
            build_nvp(AbstractWorkload()),
            rectifier=standard_rectifier(),
            stop_when_finished=False,
            bus=bus,
        ).run()
        del platform  # governor not attached to the simulated platform
        # Drive the governor directly to verify decision events.
        from repro.system.thresholds import plan_thresholds

        plan = plan_thresholds(1e-9, 1e-9, 100e-6, 1e-4)
        governor = EnergyBandGovernor(1e-6, 2e-6, bus=bus)
        governor(5e-7, plan, 1e-4)   # below band -> throttle decision
        governor(4e-7, plan, 1e-4)   # still below -> no new event
        governor(3e-6, plan, 1e-4)   # back in band -> full-speed decision
        decisions = [
            event.data for event in log.filter(ev.POLICY_DECISION)
            if event.data.get("policy") == "energy-band"
        ]
        assert [d["action"] for d in decisions] == ["throttle", "full-speed"]

    def test_threshold_recompute_event(self):
        _, log, _ = run_instrumented(0.2)
        recomputes = log.filter(ev.THRESHOLD_RECOMPUTE)
        assert len(recomputes) >= 1
        data = recomputes[0].data
        assert data["start_threshold_j"] >= data["backup_threshold_j"]


class TestSimulatorMetrics:
    def test_aggregates_published(self):
        registry = MetricsRegistry()
        result, _, _ = run_instrumented(0.5, metrics=registry)
        snapshot = registry.snapshot()
        ops = snapshot["sim_operations"]
        # Series keys render labels in sorted-name order (byte-stable
        # exposition), not declaration order.
        assert ops["op=backups,platform=nvp|value"] == result.backups
        state = snapshot["sim_state_seconds"]
        run_key = "platform=nvp,state=run|value"
        assert state[run_key] == pytest.approx(result.state_time_s["run"])

    def test_storage_gauges_bound(self):
        registry = MetricsRegistry()
        run_instrumented(0.2, metrics=registry)
        snapshot = registry.snapshot()
        assert "storage_energy_j" in snapshot
        assert "storage_charged_total_j" in snapshot


class TestProfilerMetrics:
    def test_profile_entry_is_indexed_and_attributed(self):
        from repro.analysis.profiler import profile_program
        from repro.workloads.suite import build_kernel

        build = build_kernel("crc")
        registry = MetricsRegistry()
        profile = profile_program(
            build.program, metrics=registry, label="crc"
        )
        entry = profile.entry("bitloop")
        assert entry.instructions > 0
        with pytest.raises(KeyError):
            profile.entry("nonexistent")
        snapshot = registry.snapshot()
        key = "label=bitloop,program=crc|value"  # sorted label names
        assert snapshot["profile_instructions"][key] == entry.instructions
        assert "profile_class_instructions" in snapshot


class TestCliObservability:
    def test_simulate_writes_artifacts(self, tmp_path, capsys):
        from repro.cli import main

        trace_path = str(tmp_path / "t.json")
        metrics_path = str(tmp_path / "m.csv")
        manifest_path = str(tmp_path / "r.json")
        assert main([
            "simulate", "--duration", "1", "--seed", "2",
            "--trace", trace_path, "--metrics", metrics_path,
            "--manifest", manifest_path,
        ]) == 0
        out = capsys.readouterr().out
        assert "trace events" in out
        trace = load_chrome_trace(trace_path)
        assert any(e["name"] == "backup" for e in trace)
        assert json.load(open(manifest_path))["command"] == "simulate"

    def test_observe_renders_summary(self, capsys):
        from repro.cli import main

        assert main(["observe", "--duration", "1", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "duty cycle" in out
        assert "backup success" in out
        assert "event counts" in out

    def test_observe_interval_progress(self, capsys):
        from repro.cli import main

        assert main([
            "observe", "--duration", "1", "--seed", "2",
            "--interval", "0.5",
        ]) == 0
        out = capsys.readouterr().out
        assert out.count("[") >= 1

    def test_simulate_json_stays_clean_with_exports(self, tmp_path, capsys):
        from repro.cli import main

        assert main([
            "simulate", "--duration", "1", "--json",
            "--trace", str(tmp_path / "t.json"),
        ]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["label"] == "nvp"
        assert (tmp_path / "t.json").exists()
