"""Tests for the metrics registry (counters, gauges, labels)."""

import warnings

import pytest

from repro.obs.metrics import DEFAULT_MAX_SERIES, MetricsRegistry


class TestCounter:
    def test_inc_accumulates(self):
        registry = MetricsRegistry()
        counter = registry.counter("ticks")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_counter_rejects_negative(self):
        counter = MetricsRegistry().counter("ticks")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_labeled_series_are_independent(self):
        registry = MetricsRegistry()
        counter = registry.counter("backups", labels=("platform",))
        counter.labels(platform="nvp").inc(3)
        counter.labels(platform="checkpoint").inc(1)
        assert counter.labels(platform="nvp").value == 3
        assert counter.labels(platform="checkpoint").value == 1

    def test_unlabeled_access_on_labeled_metric_raises(self):
        registry = MetricsRegistry()
        counter = registry.counter("backups", labels=("platform",))
        with pytest.raises(ValueError):
            counter.inc()

    def test_labels_on_unlabeled_metric_raise(self):
        counter = MetricsRegistry().counter("ticks")
        with pytest.raises(ValueError):
            counter.labels(platform="nvp")

    def test_wrong_label_names_raise(self):
        registry = MetricsRegistry()
        counter = registry.counter("backups", labels=("platform",))
        with pytest.raises(ValueError):
            counter.labels(state="run")
        with pytest.raises(ValueError):
            counter.labels(platform="nvp", state="run")


class TestGauge:
    def test_set_and_read(self):
        gauge = MetricsRegistry().gauge("energy_j")
        gauge.set(1.5e-6)
        assert gauge.value == 1.5e-6

    def test_callback_gauge_samples_lazily(self):
        state = {"value": 0.0}
        gauge = MetricsRegistry().gauge("energy_j", fn=lambda: state["value"])
        state["value"] = 42.0
        assert gauge.value == 42.0

    def test_callback_gauge_cannot_be_set(self):
        gauge = MetricsRegistry().gauge("energy_j", fn=lambda: 1.0)
        with pytest.raises(ValueError):
            gauge.set(2.0)

    def test_labeled_callback_gauge(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("storage_energy_j", labels=("platform",))
        gauge.labels(platform="nvp").set_function(lambda: 7.0)
        assert gauge.labels(platform="nvp").value == 7.0


class TestCardinalityGuard:
    def test_series_capped_with_one_warning(self):
        registry = MetricsRegistry(max_series=3)
        counter = registry.counter("ops", labels=("op",))
        for index in range(3):
            counter.labels(op=str(index)).inc()
        with pytest.warns(RuntimeWarning, match="exceeded 3 labeled series"):
            counter.labels(op="overflow-a").inc()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # second overflow must not warn
            counter.labels(op="overflow-b").inc()
        assert len(counter.series()) == 3
        assert counter.overflow_count == 2

    def test_overflow_series_dropped_from_rows(self):
        registry = MetricsRegistry(max_series=1)
        counter = registry.counter("ops", labels=("op",))
        counter.labels(op="kept").inc()
        with pytest.warns(RuntimeWarning):
            counter.labels(op="dropped").inc(100)
        labels = {row[2] for row in counter.rows()}
        assert labels == {"op=kept"}

    def test_existing_series_unaffected_past_cap(self):
        registry = MetricsRegistry(max_series=1)
        counter = registry.counter("ops", labels=("op",))
        counter.labels(op="kept").inc()
        with pytest.warns(RuntimeWarning):
            counter.labels(op="extra").inc()
        counter.labels(op="kept").inc()  # still reaches the real series
        assert counter.labels(op="kept").value == 2

    def test_overflow_updates_share_one_child(self):
        registry = MetricsRegistry(max_series=1)
        counter = registry.counter("ops", labels=("op",))
        counter.labels(op="kept").inc()
        with pytest.warns(RuntimeWarning):
            first = counter.labels(op="a")
        second = counter.labels(op="b")
        assert first is second

    def test_default_cap(self):
        counter = MetricsRegistry().counter("ops", labels=("op",))
        assert counter.max_series == DEFAULT_MAX_SERIES

    def test_invalid_cap_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry(max_series=0).counter("ops", labels=("op",))


class TestRegistry:
    def test_reregistration_returns_same_metric(self):
        registry = MetricsRegistry()
        first = registry.counter("backups", labels=("platform",))
        second = registry.counter("backups", labels=("platform",))
        assert first is second

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")

    def test_label_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x", labels=("a",))
        with pytest.raises(ValueError):
            registry.counter("x", labels=("b",))

    def test_invalid_name_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("bad name!")

    def test_get_and_contains(self):
        registry = MetricsRegistry()
        counter = registry.counter("x")
        assert "x" in registry
        assert registry.get("x") is counter
        with pytest.raises(KeyError):
            registry.get("missing")

    def test_rows_cover_all_series(self):
        registry = MetricsRegistry()
        counter = registry.counter("ops", labels=("op",))
        counter.labels(op="a").inc()
        counter.labels(op="b").inc(2)
        registry.gauge("level").set(0.5)
        rows = registry.rows()
        names = {(row[1], row[2]) for row in rows}
        assert ("ops", "op=a") in names
        assert ("ops", "op=b") in names
        assert ("level", "") in names

    def test_snapshot_view(self):
        registry = MetricsRegistry()
        registry.counter("ticks").inc(5)
        assert registry.snapshot()["ticks"]["value"] == 5


class TestDeterministicOrdering:
    """Label ordering is sorted, not insertion-ordered — the property
    the byte-stable Prometheus/JSONL exposition rests on."""

    def test_series_keys_sort_label_names(self):
        registry = MetricsRegistry()
        counter = registry.counter("ops", labels=("b", "a"))
        counter.labels(b="2", a="1").inc()
        (key,) = registry.get("ops").series().keys()
        assert key == (("a", "1"), ("b", "2"))

    def test_label_order_does_not_fork_series(self):
        registry = MetricsRegistry()
        counter = registry.counter("ops", labels=("a", "b"))
        counter.labels(a="1", b="2").inc()
        counter.labels(b="2", a="1").inc()
        series = registry.get("ops").series()
        assert len(series) == 1
        (child,) = series.values()
        assert child.value == 2
