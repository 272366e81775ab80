"""Observability layer: event bus, metrics, exporters, run manifests.

The simulation stack is instrumented with a single lightweight
:class:`~repro.obs.events.EventBus`; everything else in this package
is a consumer of that bus:

* :mod:`repro.obs.events` — typed events (outages, state transitions,
  backup/restore lifecycle, policy decisions) and the bus itself;
* :mod:`repro.obs.metrics` — Counter/Gauge registry with
  labeled series;
* :mod:`repro.obs.export` — JSONL event logs, Chrome trace-event JSON
  (openable in Perfetto / ``chrome://tracing``), CSV metrics dumps;
* :mod:`repro.obs.manifest` — reproducibility manifest (seed, config,
  git SHA, durations);
* :mod:`repro.obs.summary` — live textual run summary for the
  ``repro observe`` CLI subcommand, plus the sweep and fleet
  dashboards (``repro sweep --live``, ``repro fleet watch``);
* :mod:`repro.obs.fleetstats` — streaming population statistics
  (P² quantiles, fixed-bin histograms, co-outage matrices) behind
  fleet telemetry;
* :mod:`repro.obs.synth` — run-length event synthesis, so the
  fast-forward engine serves every non-per-tick subscription
  bit-identically to exact ticking;
* :mod:`repro.obs.spans` — wall-clock span tracing for sweeps
  (``repro sweep --trace``);
* :mod:`repro.obs.history` — benchmark metric trajectories and the
  ``repro bench-report`` regression gate;
* :mod:`repro.obs.ledger` — the persistent run ledger every
  ``simulate``/``sweep``/``compare``/bench invocation appends to
  (``repro runs list/show/diff/gc``);
* :mod:`repro.obs.resources` — per-worker CPU/peak-RSS accounting via
  ``getrusage``, shipped home in sweep result payloads.

When no bus is attached the instrumented code paths reduce to a
single ``is not None`` test per tick — simulations without observers
pay (near) nothing.  When a bus *is* attached, only a ``sim.tick``
subscription forces the exact engine; everything else rides the fast
path.
"""

from repro.obs.events import Event, EventBus, EventLog
from repro.obs.history import BenchReport, append_record, build_report, read_history
from repro.obs.ledger import (
    RunLedger,
    default_ledger_path,
    diff_records,
    format_diff,
)
from repro.obs.resources import (
    ResourceSample,
    aggregate_usage,
    sample_resources,
    usage_between,
)
from repro.obs.spans import Span, SpanTracer
from repro.obs.synth import FastPathEventSynthesizer
from repro.obs.export import (
    SnapshotWriter,
    chrome_trace,
    flatten_snapshot,
    load_chrome_trace,
    read_snapshots,
    snapshot_prometheus,
    write_chrome_trace,
    write_events_jsonl,
    write_metrics_csv,
)
from repro.obs.fleetstats import (
    FixedBinHistogram,
    P2Quantile,
    QuantileDigest,
    co_outage_matrix,
    find_storms,
    windowed_outages,
)
from repro.obs.manifest import RunManifest
from repro.obs.metrics import Counter, Gauge, MetricsRegistry
from repro.obs.summary import FleetMonitor, LiveSummary, SweepMonitor

__all__ = [
    "Event",
    "EventBus",
    "EventLog",
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "RunManifest",
    "FixedBinHistogram",
    "FleetMonitor",
    "LiveSummary",
    "P2Quantile",
    "QuantileDigest",
    "SnapshotWriter",
    "SweepMonitor",
    "co_outage_matrix",
    "find_storms",
    "flatten_snapshot",
    "read_snapshots",
    "snapshot_prometheus",
    "windowed_outages",
    "FastPathEventSynthesizer",
    "Span",
    "SpanTracer",
    "BenchReport",
    "RunLedger",
    "ResourceSample",
    "aggregate_usage",
    "append_record",
    "build_report",
    "default_ledger_path",
    "diff_records",
    "format_diff",
    "read_history",
    "sample_resources",
    "usage_between",
    "chrome_trace",
    "load_chrome_trace",
    "write_chrome_trace",
    "write_events_jsonl",
    "write_metrics_csv",
]
