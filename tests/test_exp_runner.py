"""Tests for the parallel sweep runner: determinism, caching, isolation."""

import os

import pytest

from repro.exp import ExperimentSpec, ResultCache, SweepInterrupted, SweepRunner
from repro.exp.runner import execute_run
from repro.obs import events as ev
from repro.obs.events import EventBus
from repro.system.result import SimulationResult

#: A fast, fully deterministic base: 0.2 simulated seconds.
FAST = {"source": "wristwatch", "duration_s": 0.2, "seed": 11}


def fast_spec(**axes):
    return ExperimentSpec(name="t", base=FAST, axes=axes)


class TestExecuteRun:
    def test_returns_result_dict_and_timing(self):
        payload = execute_run(fast_spec().expand()[0])
        assert payload["wall_s"] > 0
        result = SimulationResult.from_dict(payload["result"])
        assert result.label == "nvp"
        assert result.duration_s == pytest.approx(0.2)

    def test_platform_presets_all_buildable(self):
        for platform in ("nvp", "wait", "checkpoint", "oracle"):
            config = fast_spec().expand()[0] | {"platform": platform}
            assert execute_run(config)["result"]["label"]

    def test_kernel_workload(self):
        config = fast_spec().expand()[0] | {
            "source": "constant", "mean_uw": 300.0,
            "kernel": "crc", "frames": 1, "duration_s": 3.0,
            "stop_when_finished": True,
        }
        result = execute_run(config)["result"]
        assert result["completed"] is True

    def test_profile_source_matches_standard_profiles(self):
        from repro.harvest.sources import standard_profiles
        from repro.system.presets import build_nvp, standard_rectifier
        from repro.system.simulator import SystemSimulator
        from repro.workloads.base import AbstractWorkload

        config = fast_spec().expand()[0] | {
            "source": "profile", "profile_index": 1, "seed": 2017,
            "duration_s": 0.5,
        }
        via_engine = execute_run(config)["result"]
        trace = standard_profiles(duration_s=0.5, seed=2017)[1]
        direct = SystemSimulator(
            trace, build_nvp(AbstractWorkload()),
            rectifier=standard_rectifier(), stop_when_finished=False,
        ).run()
        assert via_engine == direct.to_dict()

    @pytest.mark.parametrize("index", [0, 4, 6])
    def test_profile_point_builds_only_its_profile(self, monkeypatch, index):
        from repro.exp.runner import build_trace
        from repro.exp.spec import resolve_config
        from repro.harvest import sources

        calls = []
        real = sources.wristwatch_trace

        def counting(*args, **kwargs):
            calls.append(kwargs["seed"])
            return real(*args, **kwargs)

        config = resolve_config({
            "source": "profile", "profile_index": index, "profile_count": 7,
            "seed": 2017, "duration_s": 0.5,
        })
        expected = sources.standard_profiles(0.5, seed=2017, count=7)[index]
        monkeypatch.setattr(sources, "wristwatch_trace", counting)
        assert build_trace(config) == expected
        assert calls == [2017 + index]

    def test_profile_index_out_of_range(self):
        config = fast_spec().expand()[0] | {
            "source": "profile", "profile_index": 9,
        }
        with pytest.raises(ValueError, match="profile_index"):
            execute_run(config)

    def test_retention_policy_spec_resolves(self):
        config = fast_spec().expand()[0] | {
            "nvp": {
                "technology": "STT-MRAM",
                "retention_policy": {
                    "kind": "log", "t_lsb_s": 1e-2, "t_msb_s": 1e5,
                },
            },
        }
        assert execute_run(config)["result"]["forward_progress"] >= 0

    def test_unknown_retention_kind_rejected(self):
        config = fast_spec().expand()[0] | {
            "nvp": {"retention_policy": {"kind": "cubic"}},
        }
        with pytest.raises(ValueError, match="retention policy"):
            execute_run(config)


class TestDeterminism:
    def test_same_spec_twice_identical_hashes_and_results(self):
        spec = fast_spec(capacitance_f=[68e-9, 150e-9])
        first = SweepRunner().run(spec.expand())
        second = SweepRunner().run(spec.expand())
        assert [r.key for r in first] == [r.key for r in second]
        assert [r.result for r in first] == [r.result for r in second]

    def test_parallel_matches_serial(self):
        spec = fast_spec(capacitance_f=[68e-9, 150e-9, 470e-9, 2.2e-6])
        serial = SweepRunner(jobs=1).run(spec.expand())
        parallel = SweepRunner(jobs=2).run(spec.expand())
        assert serial.executed == parallel.executed == 4
        assert [r.result for r in serial] == [r.result for r in parallel]


class TestCaching:
    def test_second_run_executes_nothing(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        spec = fast_spec(seed=[1, 2, 3])
        first = SweepRunner(cache=cache).run(spec.expand())
        assert (first.executed, first.cached) == (3, 0)
        second = SweepRunner(cache=cache).run(spec.expand())
        assert (second.executed, second.cached) == (0, 3)
        assert [r.result for r in first] == [r.result for r in second]
        assert all(r.status == "cached" for r in second)

    def test_mutated_axis_runs_only_new_points(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        SweepRunner(cache=cache).run(fast_spec(seed=[1, 2]).expand())
        grown = SweepRunner(cache=cache).run(
            fast_spec(seed=[1, 2, 3, 4]).expand()
        )
        assert (grown.executed, grown.cached) == (2, 2)
        statuses = [r.status for r in grown]
        assert statuses == ["cached", "cached", "ok", "ok"]

    def test_base_change_misses_cache(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        SweepRunner(cache=cache).run(fast_spec(seed=[1]).expand())
        other = ExperimentSpec(
            name="t", base=dict(FAST, duration_s=0.3), axes={"seed": [1]}
        )
        rerun = SweepRunner(cache=cache).run(other.expand())
        assert (rerun.executed, rerun.cached) == (1, 0)

    def test_no_cache_always_executes(self):
        spec = fast_spec(seed=[1])
        runner = SweepRunner()
        assert runner.run(spec.expand()).executed == 1
        assert runner.run(spec.expand()).executed == 1

    def test_interrupted_sweep_resumes(self, tmp_path):
        # Simulate an interruption: only the first half completed.
        cache = ResultCache(str(tmp_path))
        spec = fast_spec(seed=[1, 2, 3, 4])
        SweepRunner(cache=cache).run(spec.expand()[:2])
        resumed = SweepRunner(cache=cache).run(spec.expand())
        assert (resumed.executed, resumed.cached) == (2, 2)


class TestIsolation:
    def _bad_config(self):
        # Valid declaratively, raises at build time in the worker:
        # there are only five standard profiles.
        return fast_spec().expand()[0] | {
            "source": "profile", "profile_index": 9,
        }

    def test_failed_point_recorded_sweep_continues_serial(self):
        configs = fast_spec(seed=[1, 2]).expand()
        outcome = SweepRunner(jobs=1).run([configs[0], self._bad_config(),
                                           configs[1]])
        assert outcome.failed == 1
        assert outcome.executed == 2
        assert [r.status for r in outcome] == ["ok", "failed", "ok"]
        failed = outcome.records[1]
        assert failed.result is None
        assert "profile_index" in failed.error

    def test_failed_point_recorded_sweep_continues_parallel(self):
        configs = fast_spec(seed=[1, 2]).expand()
        outcome = SweepRunner(jobs=2).run([configs[0], self._bad_config(),
                                           configs[1]])
        assert outcome.failed == 1
        assert outcome.executed == 2
        assert [r.status for r in outcome] == ["ok", "failed", "ok"]

    def test_failures_are_not_cached(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        SweepRunner(cache=cache).run([self._bad_config()])
        assert len(cache) == 0
        retry = SweepRunner(cache=cache).run([self._bad_config()])
        assert retry.failed == 1

    def test_raise_on_failure(self):
        outcome = SweepRunner().run([self._bad_config()])
        with pytest.raises(RuntimeError, match="1 of 1 sweep points"):
            outcome.raise_on_failure()


class TestRunnerApi:
    def test_rejects_bad_jobs_and_timeout(self):
        with pytest.raises(ValueError):
            SweepRunner(jobs=0)
        for timeout in (0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="timeout"):
                SweepRunner(timeout_s=timeout)

    def test_in_process_run_past_its_timeout_fails_uncached(self, tmp_path):
        # jobs=1 runs each point in process, as does any sweep with one
        # point left to run; both once ignored timeout_s.
        cache = ResultCache(str(tmp_path / "cache"))
        outcome = SweepRunner(jobs=1, cache=cache, timeout_s=1e-6).run(
            fast_spec(seed=[1, 2]).expand()
        )
        assert [r.status for r in outcome] == ["failed", "failed"]
        assert all(r.error == "timed out after 1e-06s" for r in outcome)
        assert all(r.result is None for r in outcome)
        assert outcome.failed == 2 and outcome.executed == 0
        assert len(cache) == 0

    def test_outcome_iteration_and_summary(self):
        outcome = SweepRunner().run(fast_spec(seed=[1, 2]).expand())
        assert len(outcome) == 2
        assert [r.index for r in outcome] == [0, 1]
        assert "2 point(s)" in outcome.summary()
        results = outcome.simulation_results()
        assert all(isinstance(r, SimulationResult) for r in results)

    def test_progress_events_on_bus(self):
        bus = EventBus()
        log = bus.record(names=(ev.SWEEP_BEGIN, ev.SWEEP_POINT, ev.SWEEP_END))
        SweepRunner(bus=bus).run(fast_spec(seed=[1, 2]).expand())
        names = [event.name for event in log.events]
        assert names == [
            ev.SWEEP_BEGIN, ev.SWEEP_POINT, ev.SWEEP_POINT, ev.SWEEP_END,
        ]
        end = log.events[-1].data
        assert end["executed"] == 2
        assert end["failed"] == 0

    def test_cached_points_emit_progress(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        spec = fast_spec(seed=[1])
        SweepRunner(cache=cache).run(spec.expand())
        bus = EventBus()
        log = bus.record(names=(ev.SWEEP_POINT,))
        SweepRunner(cache=cache, bus=bus).run(spec.expand())
        assert [e.data["status"] for e in log.events] == ["cached"]


class TestResourceAccounting:
    def test_execute_run_ships_resources(self):
        payload = execute_run(fast_spec().expand()[0])
        resources = payload["resources"]
        assert payload["pid"] == os.getpid()
        assert resources["pid"] == os.getpid()
        assert resources["cpu_s"] >= 0.0
        assert resources["peak_rss_kb"] > 0.0
        assert resources["cpu_s"] == pytest.approx(
            resources["cpu_user_s"] + resources["cpu_system_s"]
        )

    def test_records_carry_resources(self):
        outcome = SweepRunner().run(fast_spec(seed=[1, 2]).expand())
        for record in outcome:
            assert record.pid == os.getpid()
            assert record.peak_rss_kb > 0.0
        usage = outcome.resource_usage()
        assert usage["workers"] == 1
        assert usage["cpu_s"] == pytest.approx(
            sum(r.cpu_s for r in outcome)
        )

    def test_parallel_records_carry_worker_pids(self):
        outcome = SweepRunner(jobs=2).run(
            fast_spec(seed=[1, 2, 3, 4]).expand()
        )
        pids = {record.pid for record in outcome}
        assert None not in pids
        assert os.getpid() not in pids  # ran in pool workers
        assert 1 <= len(pids) <= 2

    def test_cache_hits_cost_nothing_this_invocation(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        spec = fast_spec(seed=[1])
        SweepRunner(cache=cache).run(spec.expand())
        second = SweepRunner(cache=cache).run(spec.expand())
        record = second.records[0]
        assert record.status == "cached"
        assert record.pid is None
        assert record.cpu_s == 0.0
        assert second.resource_usage()["workers"] == 0

    def test_point_events_carry_resources(self):
        bus = EventBus()
        log = bus.record(names=(ev.SWEEP_POINT,))
        SweepRunner(bus=bus).run(fast_spec(seed=[1]).expand())
        data = log.events[0].data
        assert data["pid"] == os.getpid()
        assert data["cpu_s"] >= 0.0
        assert data["peak_rss_kb"] > 0.0

    def test_metrics_published_post_run(self, tmp_path):
        from repro.obs import MetricsRegistry

        cache = ResultCache(str(tmp_path))
        spec = fast_spec(seed=[1, 2])
        SweepRunner(cache=cache).run(spec.expand())
        metrics = MetricsRegistry()
        SweepRunner(cache=cache, metrics=metrics).run(spec.expand())
        hits = metrics.get("cache_hit_total")
        assert hits.labels(outcome="hit").value == 2
        assert hits.labels(outcome="miss").value == 0
        # Nothing executed, so no per-worker series appear.
        assert not metrics.get("worker_cpu_s").series()

    def test_worker_metrics_labeled_by_pid(self):
        from repro.obs import MetricsRegistry

        metrics = MetricsRegistry()
        SweepRunner(metrics=metrics).run(fast_spec(seed=[1]).expand())
        series = metrics.get("worker_cpu_s").series()
        assert list(series) == [(("pid", str(os.getpid())),)]
        rss = metrics.get("worker_peak_rss_kb")
        assert rss.labels(pid=str(os.getpid())).value > 0.0


def _die_or_run(config):
    """Pool target: kill the worker outright for marked configs.

    Module-level so it pickles; inherited by fork workers when the
    test monkeypatches it in as ``execute_run``.
    """
    if config.get("mean_uw") == 123.0:  # the death marker
        os._exit(1)
    return execute_run(config)


class TestWorkerDeath:
    def test_dead_worker_recorded_sweep_survives(self, monkeypatch):
        import repro.exp.runner as runner_mod

        monkeypatch.setattr(runner_mod, "execute_run", _die_or_run)
        configs = fast_spec(seed=[1, 2, 3]).expand()
        configs[1] = configs[1] | {"mean_uw": 123.0}
        outcome = SweepRunner(jobs=2).run(configs)
        dead = outcome.records[1]
        assert dead.status == "failed"
        assert dead.result is None
        assert dead.error
        assert dead.pid is None  # never reported home
        # The sweep completed and produced a full accounting.
        assert len(outcome) == 3
        assert outcome.executed + outcome.failed == 3

    def test_dead_worker_still_yields_ledger_record(self, monkeypatch):
        import time as _time

        import repro.exp.runner as runner_mod
        from repro.obs.ledger import sweep_record

        monkeypatch.setattr(runner_mod, "execute_run", _die_or_run)
        configs = fast_spec(seed=[1, 2]).expand()
        configs[0] = configs[0] | {"mean_uw": 123.0}
        started = _time.time()
        outcome = SweepRunner(jobs=2).run(configs)
        record = sweep_record(
            "sweep", "t", outcome, started, _time.time()
        )
        assert record["outcome"] == "error"
        assert record["points"]["failed"] >= 1
        assert len(record["runs"]) == 2
        assert record["error"]

    def test_dead_worker_does_not_wedge_monitor_or_spans(self, monkeypatch):
        import io

        import repro.exp.runner as runner_mod
        from repro.obs import SpanTracer, SweepMonitor

        monkeypatch.setattr(runner_mod, "execute_run", _die_or_run)
        configs = fast_spec(seed=[1, 2, 3]).expand()
        configs[2] = configs[2] | {"mean_uw": 123.0}
        bus = EventBus()
        monitor = SweepMonitor(
            stream=io.StringIO(), interactive=False
        ).attach(bus)
        tracer = SpanTracer()
        SweepRunner(jobs=2, bus=bus, tracer=tracer).run(configs)
        assert monitor.done == 3
        assert monitor.failed >= 1
        # Spans merged only from workers that reported home.
        assert any(s.name == "sweep" for s in tracer.spans)


class TestInterrupt:
    def test_interrupt_carries_partial_outcome(self, monkeypatch):
        import repro.exp.runner as runner_mod

        calls = {"n": 0}

        def interrupt_on_second(config):
            calls["n"] += 1
            if calls["n"] == 2:
                raise KeyboardInterrupt
            return execute_run(config)

        monkeypatch.setattr(runner_mod, "execute_run", interrupt_on_second)
        with pytest.raises(SweepInterrupted) as info:
            SweepRunner(jobs=1).run(fast_spec(seed=[1, 2, 3]).expand())
        outcome = info.value.outcome
        assert isinstance(info.value, KeyboardInterrupt)
        assert outcome.executed == 1
        assert outcome.interrupted == 2
        statuses = [r.status for r in outcome]
        assert statuses == ["ok", "interrupted", "interrupted"]
        assert "2 interrupted" in outcome.summary()

    def test_uninterrupted_summary_unchanged(self):
        outcome = SweepRunner().run(fast_spec(seed=[1]).expand())
        assert "interrupted" not in outcome.summary()

    def test_interrupt_emits_sweep_end(self, monkeypatch):
        import repro.exp.runner as runner_mod

        def interrupt(config):
            raise KeyboardInterrupt

        monkeypatch.setattr(runner_mod, "execute_run", interrupt)
        bus = EventBus()
        log = bus.record(names=(ev.SWEEP_END,))
        with pytest.raises(SweepInterrupted):
            SweepRunner(bus=bus).run(fast_spec(seed=[1, 2]).expand())
        assert len(log.events) == 1
        assert log.events[0].data["interrupted"] == 2


class TestResultHydration:
    def test_from_dict_ignores_derived_keys(self):
        outcome = SweepRunner().run(fast_spec().expand())
        record = outcome.records[0]
        hydrated = record.simulation_result()
        assert hydrated.to_dict() == record.result

    def test_failed_record_hydrates_to_none(self):
        bad = fast_spec().expand()[0] | {
            "source": "profile", "profile_index": 9,
        }
        outcome = SweepRunner().run([bad])
        assert outcome.records[0].simulation_result() is None
