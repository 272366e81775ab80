"""Span tracing: the sweep wall-clock timeline (repro sweep --trace)."""

import io
import json

import pytest

from repro.exp import ResultCache, SweepRunner
from repro.obs import SpanTracer, load_chrome_trace
from repro.obs.spans import TID_RUNNER


def sweep_config(label, seed=1):
    return {
        "source": "wristwatch",
        "duration_s": 0.2,
        "seed": seed,
        "platform": "nvp",
        "label": label,
    }


class TestSpanTracer:
    def test_add_records_interval(self):
        tracer = SpanTracer()
        span = tracer.add("fold", 10.0, 10.5, status="ok")
        assert span.duration_s == pytest.approx(0.5)
        assert span.tid == TID_RUNNER
        assert tracer.named("fold") == [span]

    def test_negative_duration_clamped(self):
        tracer = SpanTracer()
        assert tracer.add("x", 2.0, 1.0).duration_s == 0.0

    def test_span_context_manager_collects_attrs(self):
        tracer = SpanTracer()
        with tracer.span("cache.get", key="abc") as attrs:
            attrs["hit"] = True
        (span,) = tracer.named("cache.get")
        assert span.args == {"key": "abc", "hit": True}

    def test_span_records_on_exception(self):
        tracer = SpanTracer()
        with pytest.raises(RuntimeError):
            with tracer.span("run:x"):
                raise RuntimeError("boom")
        assert len(tracer.named("run:x")) == 1

    def test_import_worker_groups_by_pid(self):
        tracer = SpanTracer()
        tracer.add("sweep", 0.0, 1.0)
        tracer.import_worker(
            [{"name": "simulate", "start_s": 0.1, "end_s": 0.9,
              "args": {"label": "a"}}],
            pid=1234,
        )
        assert tracer.threads() == [TID_RUNNER, "worker-1234"]
        (span,) = tracer.named("simulate")
        assert span.tid == "worker-1234"
        assert span.args == {"label": "a"}

    def test_to_chrome_validates_and_rebases(self):
        tracer = SpanTracer()
        tracer.add("sweep", 100.0, 101.0)
        tracer.import_worker(
            [{"name": "simulate", "start_s": 100.2, "end_s": 100.8}], pid=9
        )
        events = tracer.to_chrome(process_name="test sweep")
        durations = [e for e in events if e["ph"] == "X"]
        assert min(e["ts"] for e in durations) == 0.0
        metas = {e["name"] for e in events if e["ph"] == "M"}
        assert metas == {"process_name", "thread_name"}

    def test_write_chrome_roundtrips_through_validator(self, tmp_path):
        tracer = SpanTracer()
        with tracer.span("sweep", points=1):
            pass
        path = tmp_path / "trace.json"
        count = tracer.write_chrome(str(path))
        events = load_chrome_trace(str(path))
        assert len(events) == count
        payload = json.loads(path.read_text())
        assert payload["displayTimeUnit"] == "ms"

    def test_write_chrome_is_json_dump_of_to_chrome(self, tmp_path):
        tracer = SpanTracer()
        for index in range(50):
            start = 100.0 + index * 1e-3
            tracer.add(f"run:{index}", start, start + 5e-4,
                       tid="worker-7" if index % 3 else TID_RUNNER,
                       hit=index % 2 == 0, note='"\\é', size=2**70 + index)
        path = tmp_path / "trace.json"
        count = tracer.write_chrome(str(path), process_name="spans")
        reference = io.StringIO()
        json.dump({"traceEvents": tracer.to_chrome(process_name="spans"),
                   "displayTimeUnit": "ms"}, reference)
        assert count == 50 + 3  # one process and two thread names
        assert path.read_text() == reference.getvalue()


class TestRunnerIntegration:
    def test_serial_sweep_records_full_hierarchy(self, tmp_path):
        tracer = SpanTracer()
        cache = ResultCache(str(tmp_path / "cache"))
        runner = SweepRunner(jobs=1, cache=cache, tracer=tracer)
        runner.run([sweep_config("a")]).raise_on_failure()
        names = {span.name for span in tracer.spans}
        assert {"sweep", "run:a", "cache.get", "cache.put",
                "build", "simulate"} <= names
        (get,) = tracer.named("cache.get")
        assert get.args["hit"] is False
        (sweep,) = tracer.named("sweep")
        assert sweep.args["executed"] == 1 and sweep.args["cached"] == 0
        # Worker spans landed on a worker thread, runner spans on runner.
        assert tracer.named("simulate")[0].tid.startswith("worker-")
        assert tracer.named("run:a")[0].tid == TID_RUNNER

    def test_cache_hit_attribution_on_second_sweep(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        SweepRunner(jobs=1, cache=cache).run(
            [sweep_config("a")]
        ).raise_on_failure()
        tracer = SpanTracer()
        cache.tracer = None  # fresh attach, as the CLI does per sweep
        runner = SweepRunner(jobs=1, cache=cache, tracer=tracer)
        outcome = runner.run([sweep_config("a")])
        assert outcome.cached == 1
        (get,) = tracer.named("cache.get")
        assert get.args["hit"] is True
        assert tracer.named("simulate") == []

    def test_pool_sweep_merges_worker_spans(self, tmp_path):
        tracer = SpanTracer()
        runner = SweepRunner(jobs=2, tracer=tracer)
        runner.run(
            [sweep_config("a", seed=1), sweep_config("b", seed=2)]
        ).raise_on_failure()
        labels = {span.args.get("label") for span in tracer.named("simulate")}
        assert labels == {"a", "b"}
        assert len(tracer.named("collect:a")) == 1
        assert all(t == TID_RUNNER or t.startswith("worker-")
                   for t in tracer.threads())

    def test_untraced_runner_records_nothing(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        runner = SweepRunner(jobs=1, cache=cache)
        runner.run([sweep_config("a")]).raise_on_failure()
        assert runner.tracer is None and cache.tracer is None
