"""Tests for the exporters (Chrome trace, JSONL, CSV) and run manifest."""

import csv
import io
import json
import math
import os
import tempfile
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs import events as ev
from repro.obs import export
from repro.obs.events import Event, EventBus, EventLog
from repro.obs.export import (
    REQUIRED_TRACE_KEYS,
    chrome_trace,
    load_chrome_trace,
    read_events_jsonl,
    write_chrome_trace,
    write_events_jsonl,
    write_metrics_csv,
)
from repro.obs.manifest import RunManifest, git_revision
from repro.obs.metrics import MetricsRegistry


def make_log():
    """A hand-built event stream covering every exporter code path."""
    bus = EventBus()
    log = bus.record()
    bus.emit(ev.SIM_BEGIN, 0.0, label="nvp", ticks=100, dt_s=1e-4)
    bus.emit(ev.STATE_TRANSITION, 0.0, state="off", prev=None)
    bus.emit(ev.OUTAGE_BEGIN, 0.001, threshold_w=33e-6)
    bus.emit(ev.OUTAGE_END, 0.003, duration_s=0.002)
    bus.emit(ev.STATE_TRANSITION, 0.004, state="restore", prev="off")
    bus.emit(ev.RESTORE_START, 0.004, energy_j=1e-9)
    bus.emit(ev.RESTORE_COMMIT, 0.004, time_s=2e-6, flipped_bits=0)
    bus.emit(ev.WAKE, 0.004, cold=False)
    bus.emit(ev.STATE_TRANSITION, 0.005, state="run", prev="restore")
    for tick in range(5):
        bus.emit(ev.TICK, 0.005 + tick * 1e-4, state="run",
                 instructions=3, energy_j=1e-6)
    bus.emit(ev.BACKUP_START, 0.006, energy_j=2e-9, bits=168, time_s=3e-6)
    bus.emit(ev.BACKUP_COMMIT, 0.006, energy_j=2e-9, bits=168, time_s=3e-6)
    bus.emit(ev.STATE_TRANSITION, 0.007, state="off", prev="backup")
    bus.emit(ev.BACKUP_FAIL, 0.008, needed_j=2e-9, drawn_j=1e-9,
             lost_instructions=7)
    bus.emit(ev.SIM_END, 0.01, completed=False, ticks=100)
    return log


class TestChromeTrace:
    def test_schema_round_trip(self, tmp_path):
        path = str(tmp_path / "trace.json")
        count = write_chrome_trace(make_log(), path)
        trace = load_chrome_trace(path)
        assert len(trace) == count
        for event in trace:
            for key in REQUIRED_TRACE_KEYS:
                if key == "ts" and event["ph"] == "M":
                    continue
                assert key in event

    def test_state_spans_are_duration_events(self):
        trace = chrome_trace(make_log())
        spans = [e for e in trace if e.get("cat") == "state" and e["ph"] == "X"]
        names = [span["name"] for span in spans]
        assert names == ["off", "restore", "run", "off"]
        for span in spans:
            assert span["dur"] >= 0

    def test_ops_pair_start_with_outcome(self):
        trace = chrome_trace(make_log())
        ops = [e for e in trace if e.get("cat") == "ops"]
        outcomes = {(op["name"], op["args"]["outcome"]) for op in ops}
        assert ("restore", "commit") in outcomes
        assert ("backup", "commit") in outcomes
        assert ("backup", "fail") in outcomes

    def test_outage_span_present_with_duration(self):
        trace = chrome_trace(make_log())
        outages = [e for e in trace if e["name"] == "outage"]
        assert len(outages) == 1
        assert outages[0]["dur"] == pytest.approx(2000.0)  # 2 ms in us

    def test_counter_events_decimated(self):
        dense = chrome_trace(make_log(), counter_decimation=1)
        sparse = chrome_trace(make_log(), counter_decimation=5)
        dense_counters = [e for e in dense if e["ph"] == "C"]
        sparse_counters = [e for e in sparse if e["ph"] == "C"]
        assert len(dense_counters) == 5
        assert len(sparse_counters) == 1

    def test_sim_time_maps_to_microseconds(self):
        trace = chrome_trace(make_log())
        outage = [e for e in trace if e["name"] == "outage"][0]
        assert outage["ts"] == pytest.approx(1000.0)  # 0.001 s -> 1000 us

    def test_thread_metadata_present(self):
        trace = chrome_trace(make_log())
        threads = [e for e in trace if e["name"] == "thread_name"]
        assert {t["args"]["name"] for t in threads} >= {
            "platform state", "backup/restore", "supply outages"
        }

    def test_invalid_decimation_rejected(self):
        with pytest.raises(ValueError):
            chrome_trace(make_log(), counter_decimation=0)

    def test_loader_rejects_missing_keys(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([{"name": "x", "ph": "i"}]))
        with pytest.raises(ValueError):
            load_chrome_trace(str(path))

    def test_loader_accepts_bare_array(self, tmp_path):
        path = tmp_path / "bare.json"
        path.write_text(json.dumps(
            [{"name": "x", "ph": "i", "ts": 0, "pid": 0, "tid": 0}]
        ))
        assert len(load_chrome_trace(str(path))) == 1


class TestJsonl:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        log = make_log()
        count = write_events_jsonl(log, path)
        assert count == len(log)
        loaded = read_events_jsonl(path)
        assert loaded.names() == log.names()
        assert [e.t_s for e in loaded] == [e.t_s for e in log]
        assert loaded[2].data["threshold_w"] == pytest.approx(33e-6)

    def test_lines_are_valid_json(self, tmp_path):
        path = tmp_path / "events.jsonl"
        write_events_jsonl(make_log(), str(path))
        for line in path.read_text().splitlines():
            record = json.loads(line)
            assert "name" in record and "t_s" in record and "seq" in record


# -- streaming trace writer: byte identity with json.dump -----------------


def reference_trace_text(log, **kwargs):
    """The trace file as ``json.dump`` of the whole object writes it."""
    handle = io.StringIO()
    json.dump(
        {"traceEvents": chrome_trace(log, **kwargs), "displayTimeUnit": "ms"},
        handle,
    )
    return handle.getvalue()


def check_written(writer, log, path, count, reference, **kwargs):
    """``writer`` returns ``count`` and writes exactly ``reference``."""
    assert writer(log, str(path), **kwargs) == count
    with open(path) as handle:
        assert handle.read() == reference


_TRICKY_TEXT = st.sampled_from(
    ['"', "\\", "\x00\x1f\n\t\x7f", "é ✓\U0001f600"]
)
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**64, max_value=2**80),
    st.floats(),
    st.sampled_from(
        [-0.0, 5e-324, 1e308, math.nan, math.inf, -math.inf]
    ),
    st.text(max_size=8),
    _TRICKY_TEXT,
)
_KEYS = st.one_of(st.text(max_size=6), _TRICKY_TEXT)
_JSON = st.recursive(
    _SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(_KEYS, children, max_size=4),
    ),
    max_leaves=10,
)
_EVENTS = st.builds(
    lambda name, t_s, data, time_s: (name, t_s, {**data, **time_s}),
    st.one_of(st.sampled_from(ev.EVENT_NAMES), st.text(max_size=6)),
    st.floats(),
    # chrome_trace does arithmetic on ``time_s``, so it is always a float.
    st.dictionaries(_KEYS.filter(lambda key: key != "time_s"), _JSON,
                    max_size=4),
    st.one_of(st.just({}), st.builds(lambda t: {"time_s": t}, st.floats())),
)


class TestStreamingTraceWriter:
    """The Chrome writers stream events through ``json.dumps``; bytes unchanged."""

    @given(events=st.lists(_EVENTS, max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_generated_logs_match_reference(self, events):
        log = EventLog(
            [Event(name, t_s, seq, data)
             for seq, (name, t_s, data) in enumerate(events, start=1)]
        )
        with tempfile.TemporaryDirectory() as tmp:
            check_written(write_chrome_trace, log, os.path.join(tmp, "out"),
                          len(chrome_trace(log, counter_decimation=2)),
                          reference_trace_text(log, counter_decimation=2),
                          counter_decimation=2)

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_writer_separators(self, tmp_path, n):
        trace = [{"name": "x", "ph": "i", "ts": float(i), "pid": 0, "tid": 0}
                 for i in range(n)]
        check_written(export._write_trace, trace, tmp_path / "out", n,
                      json.dumps({"traceEvents": trace, "displayTimeUnit": "ms"}))

    def test_invalid_decimation_creates_no_file(self, tmp_path):
        path = tmp_path / "trace.json"
        with pytest.raises(ValueError):
            write_chrome_trace(make_log(), str(path), counter_decimation=0)
        assert not path.exists()

    def test_memory_is_bounded(self, tmp_path):
        """Writing twice the events must not need twice the memory."""

        def peak(n_cycles):
            bus = EventBus()
            log = bus.record()
            for cycle in range(n_cycles):
                t = cycle * 1e-3
                bus.emit(ev.STATE_TRANSITION, t, state="run", prev="off")
                bus.emit(ev.BACKUP_START, t, energy_j=2e-9, bits=168)
                bus.emit(ev.BACKUP_COMMIT, t, energy_j=2e-9, time_s=3e-6)
                bus.emit(ev.OUTAGE_BEGIN, t, threshold_w=33e-6)
                bus.emit(ev.OUTAGE_END, t + 5e-4, duration_s=5e-4)
            tracemalloc.start()
            try:
                write_chrome_trace(log, str(tmp_path / "out"))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(8_000) < 1.25 * peak(4_000)   # 40,000 vs 20,000 events


class TestMetricsCsv:
    def test_csv_dump(self, tmp_path):
        registry = MetricsRegistry()
        counter = registry.counter("backups", labels=("platform",))
        counter.labels(platform="nvp").inc(3)
        registry.gauge("energy").set(1.5)
        path = str(tmp_path / "metrics.csv")
        count = write_metrics_csv(registry, path)
        with open(path) as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["kind", "name", "labels", "field", "value"]
        assert len(rows) == count + 1
        data = {(r[1], r[2]): float(r[4]) for r in rows[1:]}
        assert data[("backups", "platform=nvp")] == 3.0
        assert data[("energy", "")] == 1.5


class TestManifest:
    def test_collect_and_write(self, tmp_path):
        manifest = RunManifest.collect(
            command="test", seed=7, config={"duration_s": 1.0}, note="hi"
        )
        manifest.finish()
        assert manifest.duration_s is not None and manifest.duration_s >= 0
        path = str(tmp_path / "manifest.json")
        manifest.write(path)
        loaded = RunManifest.read(path)
        assert loaded.command == "test"
        assert loaded.seed == 7
        assert loaded.config == {"duration_s": 1.0}
        assert loaded.extra == {"note": "hi"}
        assert loaded.python

    def test_git_revision_inside_repo(self):
        sha = git_revision()
        assert sha == "unknown" or len(sha) == 40

    def test_git_revision_outside_repo(self, tmp_path):
        assert git_revision(cwd=str(tmp_path)) == "unknown"


class TestPrometheusText:
    def make_registry(self):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        registry.counter(
            "sim.backups", labels=("platform", "state"),
            help="completed backups",
        ).labels(state="run", platform="nvp").inc(3)
        registry.gauge("energy.level").set(0.5)
        hist = registry.histogram(
            "outage.len", buckets=(0.001, 0.01, float("inf"))
        )
        hist.observe(0.002)
        hist.observe(0.5)
        return registry

    def test_exposition_contents(self):
        from repro.obs.export import prometheus_text

        text = prometheus_text(self.make_registry())
        assert "# TYPE sim_backups counter" in text
        # Label names render sorted regardless of call order.
        assert 'sim_backups{platform="nvp",state="run"} 3' in text
        assert "energy_level 0.5" in text
        assert 'outage_len_bucket{le="0.001"} 0' in text
        assert 'outage_len_bucket{le="0.01"} 1' in text
        assert 'outage_len_bucket{le="+Inf"} 2' in text
        assert "outage_len_count 2" in text
        assert text.endswith("\n")

    def test_exposition_is_byte_stable(self):
        """Golden-file property: same contents, same bytes — even when
        labels and metrics are registered in a different order."""
        from repro.obs.export import prometheus_text
        from repro.obs.metrics import MetricsRegistry

        other = MetricsRegistry()
        hist = other.histogram(
            "outage.len", buckets=(0.001, 0.01, float("inf"))
        )
        hist.observe(0.5)
        hist.observe(0.002)
        other.gauge("energy.level").set(0.5)
        other.counter(
            "sim.backups", labels=("platform", "state"),
            help="completed backups",
        ).labels(platform="nvp", state="run").inc(3)
        assert prometheus_text(other) == prometheus_text(
            self.make_registry()
        )

    def test_prefix_and_name_mangling(self):
        from repro.obs.export import prometheus_text
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        registry.gauge("fleet.watch.rate").set(1.0)
        text = prometheus_text(registry, prefix="repro.")
        assert "repro_fleet_watch_rate 1" in text

    def test_value_rendering(self):
        from repro.obs.export import _prom_value

        assert _prom_value(3.0) == "3"
        assert _prom_value(0.25) == "0.25"
        assert _prom_value(float("inf")) == "+Inf"
        assert _prom_value(float("-inf")) == "-Inf"
        assert _prom_value(float("nan")) == "NaN"

    def test_write_prometheus(self, tmp_path):
        from repro.obs.export import prometheus_text, write_prometheus

        registry = self.make_registry()
        path = tmp_path / "metrics.prom"
        n = write_prometheus(registry, str(path))
        assert path.read_text() == prometheus_text(registry)
        assert n == len(path.read_bytes())


class TestSnapshots:
    SNAP = {
        "tick": 100,
        "t_s": 0.01,
        "devices": {"total": 4, "final": 1},
        "outage": {"fraction": 0.5, "storm": True},
        "label": "ignored-string",
        "series": [1, 2, 3],
    }

    def test_flatten_is_sorted_and_numeric_only(self):
        from repro.obs.export import flatten_snapshot

        pairs = flatten_snapshot(self.SNAP)
        assert pairs == sorted(pairs)
        names = [name for name, _v in pairs]
        assert "devices_total" in names
        assert "outage_fraction" in names
        assert "label" not in names and "series" not in names
        flat = dict(pairs)
        assert flat["outage_storm"] == 1.0  # bools become 0/1

    def test_snapshot_prometheus_gauges(self):
        from repro.obs.export import snapshot_prometheus

        text = snapshot_prometheus(self.SNAP)
        assert "fleet_devices_total 4" in text
        assert "fleet_outage_storm 1" in text
        assert snapshot_prometheus(self.SNAP) == text  # stable

    def test_writer_roundtrip_with_prom_sibling(self, tmp_path):
        from repro.obs.export import (
            SnapshotWriter,
            read_snapshots,
            snapshot_prometheus,
        )

        path = tmp_path / "tel.jsonl"
        prom = tmp_path / "tel.jsonl.prom"
        with SnapshotWriter(str(path), prom_path=str(prom)) as writer:
            writer.append({"tick": 1, "x": 1.0})
            writer.append({"tick": 2, "x": 2.0})
            assert writer.count == 2
        snaps = read_snapshots(str(path))
        assert [s["tick"] for s in snaps] == [1, 2]
        # The .prom sibling always holds the latest snapshot only.
        assert prom.read_text() == snapshot_prometheus(
            {"tick": 2, "x": 2.0}
        )
        assert not (tmp_path / "tel.jsonl.prom.tmp").exists()

    def test_reader_skips_torn_lines(self, tmp_path):
        from repro.obs.export import read_snapshots

        path = tmp_path / "tel.jsonl"
        path.write_text('{"tick": 1}\n\n{"tick": 2}\n{"tick": 3, "x":\n')
        assert [s["tick"] for s in read_snapshots(str(path))] == [1, 2]

    def test_writer_appends_across_instances(self, tmp_path):
        from repro.obs.export import SnapshotWriter, read_snapshots

        path = tmp_path / "tel.jsonl"
        for tick in (1, 2):
            with SnapshotWriter(str(path)) as writer:
                writer.append({"tick": tick})
        assert [s["tick"] for s in read_snapshots(str(path))] == [1, 2]
