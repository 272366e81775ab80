"""Exporters: JSONL event logs, Chrome traces, CSV, Prometheus gauges.

The Chrome exporter emits the Trace Event Format understood by
Perfetto and ``chrome://tracing``: platform state spans and
backup/restore operations become duration events (``ph: "X"``),
one-shot happenings (failures, wakes, policy decisions) become
instants (``ph: "i"``), and the stored-energy samples become counter
events (``ph: "C"``).  Simulation seconds map to trace microseconds,
so one 0.1 ms tick renders as 100 trace units.

The snapshot layer at the bottom is the transport-agnostic face of
fleet telemetry: a *snapshot* is any JSON-safe nested mapping of
numbers.  :func:`flatten_snapshot` lowers it deterministically to
sorted ``(name, value)`` pairs (keys joined with ``_``),
:func:`snapshot_prometheus` renders those pairs as Prometheus gauges,
and :class:`SnapshotWriter` appends the raw snapshots to a JSONL
time-series file (optionally mirroring the latest snapshot to a
``.prom`` textfile a node-exporter-style collector can scrape).  All
output is byte-stable for identical inputs: names sorted, floats
rendered with ``repr`` (shortest round-trip).
"""

from __future__ import annotations

import csv
import json
import math
import os
import re
import tempfile
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

from repro.obs import events as ev
from repro.obs.events import Event
from repro.obs.metrics import MetricsRegistry

#: Thread ids used in exported traces.
TID_STATE = 0
TID_OPS = 1
TID_OUTAGE = 2
TID_POLICY = 3

_THREAD_NAMES = {
    TID_STATE: "platform state",
    TID_OPS: "backup/restore",
    TID_OUTAGE: "supply outages",
    TID_POLICY: "policy/margin",
}

#: Events rendered as instants on the policy/margin thread.
_INSTANT_EVENTS = {
    ev.WAKE,
    ev.POWER_COLLAPSE,
    ev.MARGIN_RAISE,
    ev.MARGIN_DECAY,
    ev.THRESHOLD_RECOMPUTE,
    ev.POLICY_DECISION,
    ev.BACKUP_FAIL,
    ev.RESTORE_FAIL,
}


def _us(t_s: float) -> float:
    return t_s * 1e6


def chrome_trace(
    log: Iterable[Event],
    process_name: str = "nvpsim",
    pid: int = 0,
    counter_decimation: int = 10,
) -> List[Dict]:
    """Convert an event log to a list of Chrome trace events.

    Args:
        log: the events (an :class:`~repro.obs.events.EventLog` or any
            iterable), in sequence order.
        process_name: trace process name shown by the viewer.
        pid: trace process id (use distinct pids to overlay platforms).
        counter_decimation: keep every N-th stored-energy counter
            sample (per-tick counters dominate file size otherwise).
    """
    return list(_trace_events(log, process_name, pid, counter_decimation))


def _trace_events(
    log: Iterable[Event], process_name: str, pid: int, counter_decimation: int
) -> Iterator[Dict]:
    """:func:`chrome_trace`'s events, made one at a time.

    ``counter_decimation`` is checked here, before the stream starts,
    so :func:`write_chrome_trace` raises before it opens the file.
    """
    if counter_decimation < 1:
        raise ValueError("counter_decimation must be >= 1")
    return _trace_stream(log, process_name, pid, counter_decimation)


def _trace_stream(
    log: Iterable[Event], process_name: str, pid: int, counter_decimation: int
) -> Iterator[Dict]:
    yield {
        "name": "process_name",
        "ph": "M",
        "pid": pid,
        "tid": 0,
        "args": {"name": process_name},
    }
    for tid, name in _THREAD_NAMES.items():
        yield {
            "name": "thread_name",
            "ph": "M",
            "pid": pid,
            "tid": tid,
            "args": {"name": name},
        }

    state_open: Optional[Event] = None
    op_open: Dict[str, Event] = {}
    outage_open: Optional[Event] = None
    last_t = 0.0
    tick_index = 0

    def state_span(until_s: float) -> Dict:
        return {
            "name": state_open.data.get("state", "?"),
            "cat": "state",
            "ph": "X",
            "ts": _us(state_open.t_s),
            "dur": max(0.0, _us(until_s) - _us(state_open.t_s)),
            "pid": pid,
            "tid": TID_STATE,
            "args": {},
        }

    for event in log:
        last_t = max(last_t, event.t_s)
        name = event.name
        if name == ev.STATE_TRANSITION:
            if state_open is not None:
                yield state_span(event.t_s)
            state_open = event
        elif name in (ev.BACKUP_START, ev.RESTORE_START):
            op_open[name.split(".", 1)[0]] = event
        elif name in (ev.BACKUP_COMMIT, ev.BACKUP_FAIL,
                      ev.RESTORE_COMMIT, ev.RESTORE_FAIL):
            kind = name.split(".", 1)[0]
            start = op_open.pop(kind, event)
            yield {
                "name": kind,
                "cat": "ops",
                "ph": "X",
                "ts": _us(start.t_s),
                "dur": max(_us(event.t_s) - _us(start.t_s),
                           _us(event.data.get("time_s", 0.0))),
                "pid": pid,
                "tid": TID_OPS,
                "args": {**event.data, "outcome": name.split(".", 1)[1]},
            }
        elif name == ev.OUTAGE_BEGIN:
            outage_open = event
        elif name == ev.OUTAGE_END:
            start_s = outage_open.t_s if outage_open is not None else event.t_s
            outage_open = None
            yield {
                "name": "outage",
                "cat": "supply",
                "ph": "X",
                "ts": _us(start_s),
                "dur": max(0.0, _us(event.t_s) - _us(start_s)),
                "pid": pid,
                "tid": TID_OUTAGE,
                "args": event.data,
            }
        elif name == ev.TICK:
            if "energy_j" in event.data and tick_index % counter_decimation == 0:
                yield {
                    "name": "stored energy",
                    "cat": "energy",
                    "ph": "C",
                    "ts": _us(event.t_s),
                    "pid": pid,
                    "tid": TID_STATE,
                    "args": {"energy_j": event.data["energy_j"]},
                }
            tick_index += 1
        if name in _INSTANT_EVENTS:
            yield {
                "name": name,
                "cat": "event",
                "ph": "i",
                "ts": _us(event.t_s),
                "pid": pid,
                "tid": TID_POLICY,
                "s": "t",
                "args": event.data,
            }

    # Close any span still open at the end of the recording.
    if state_open is not None:
        yield state_span(last_t)
    if outage_open is not None:
        yield {
            "name": "outage",
            "cat": "supply",
            "ph": "X",
            "ts": _us(outage_open.t_s),
            "dur": max(0.0, _us(last_t) - _us(outage_open.t_s)),
            "pid": pid,
            "tid": TID_OUTAGE,
            "args": {},
        }


def write_chrome_trace(
    log: Iterable[Event],
    path: str,
    process_name: str = "nvpsim",
    counter_decimation: int = 10,
) -> int:
    """Write a Chrome trace JSON file; returns the trace-event count.

    The events stream from the log to the file one at a time, so the
    whole trace is never held in memory.
    """
    events = _trace_events(log, process_name, 0, counter_decimation)
    return _write_trace(events, path)


def _write_trace(events: Iterable[Dict], path: str) -> int:
    """Write ``{"traceEvents": [...], "displayTimeUnit": "ms"}``.

    The bytes are those of ``json.dump`` of that object, but each event
    is encoded on its own by ``json.dumps``, so only one is held at a
    time.  With default settings ``json.dumps`` runs the C encoder
    (``json.dump`` never does), which writes every value as the
    pure-Python encoder does, and a list's text is its items' texts
    joined by ``", "``.  Returns the event count.
    """
    count = 0
    with open(path, "w") as handle:
        handle.write('{"traceEvents": [')
        for event in events:
            if count:
                handle.write(", ")
            handle.write(json.dumps(event))
            count += 1
        handle.write('], "displayTimeUnit": "ms"}')
    return count


#: Keys every Chrome trace event must carry.
REQUIRED_TRACE_KEYS = ("name", "ph", "ts", "pid", "tid")


def load_chrome_trace(path: str) -> List[Dict]:
    """Load and schema-check a Chrome trace JSON file.

    Accepts both the object form (``{"traceEvents": [...]}``) and the
    bare-array form.

    Raises:
        ValueError: if an event is missing a required key, a duration
            event lacks ``dur``, or timestamps are negative.
    """
    with open(path) as handle:
        payload = json.load(handle)
    trace = payload["traceEvents"] if isinstance(payload, dict) else payload
    for index, event in enumerate(trace):
        for key in REQUIRED_TRACE_KEYS:
            if key == "ts" and event.get("ph") == "M":
                continue
            if key not in event:
                raise ValueError(f"trace event {index} missing {key!r}: {event}")
        if event["ph"] == "X":
            if "dur" not in event:
                raise ValueError(f"duration event {index} missing 'dur'")
            if event["dur"] < 0:
                raise ValueError(f"duration event {index} has negative dur")
        if event.get("ts", 0) < 0:
            raise ValueError(f"trace event {index} has negative ts")
    return trace


def write_events_jsonl(log: Iterable[Event], path: str) -> int:
    """Write one JSON object per event; returns the line count."""
    count = 0
    with open(path, "w") as handle:
        for event in log:
            handle.write(json.dumps(event.to_dict()))
            handle.write("\n")
            count += 1
    return count


def rewrite_jsonl(path: str, records: Iterable[Mapping]) -> None:
    """Atomically replace ``path`` with one sorted-key JSON line per record.

    The lines go to a temp file beside the target, which is flushed,
    fsynced and renamed over it, so a reader or a crash sees either
    the old file or the new one, never a torn mix.
    """
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=directory, prefix=f".{os.path.basename(path)}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as handle:
            for record in records:
                handle.write(json.dumps(record, sort_keys=True))
                handle.write("\n")
            handle.flush()
            os.fsync(handle.fileno())
        # mkstemp creates 0600; ledgers and histories are shared (often
        # committed) artifacts, so give them normal file permissions.
        os.chmod(tmp, 0o644)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def read_jsonl(path: str) -> Tuple[List[Dict], int]:
    """The JSON objects of a JSONL file, and how many lines were torn.

    Blank lines are skipped, and so is a line that does not parse (a
    torn append or corruption; it is counted) or that holds anything
    but an object.  Raises :class:`OSError` when the file cannot be
    read.
    """
    records: List[Dict] = []
    torn = 0
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                torn += 1
                continue
            if isinstance(record, dict):
                records.append(record)
    return records, torn


def write_metrics_csv(registry: MetricsRegistry, path: str) -> int:
    """Dump every metric series to CSV; returns the data-row count."""
    rows = registry.rows()
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["kind", "name", "labels", "field", "value"])
        for row in rows:
            writer.writerow(row)
    return len(rows)


# -- Prometheus text rendering ----------------------------------------------


_PROM_NAME_BAD = re.compile(r"[^a-zA-Z0-9_:]")


def _prom_name(name: str) -> str:
    """Mangle a metric name into the Prometheus charset (dots → ``_``)."""
    mangled = _PROM_NAME_BAD.sub("_", name)
    if not mangled or mangled[0].isdigit():
        mangled = "_" + mangled
    return mangled


def _prom_value(value: float) -> str:
    value = float(value)
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if math.isnan(value):
        return "NaN"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


# -- telemetry snapshots ---------------------------------------------------


def flatten_snapshot(
    snapshot: Mapping, prefix: str = "", sep: str = "_"
) -> List[Tuple[str, float]]:
    """Lower a nested numeric mapping to sorted ``(name, value)`` pairs.

    Keys at each level are joined with ``sep``; booleans become 0/1;
    non-numeric leaves (strings, ``None``, lists) are skipped.  The
    result is sorted by name, so two identical snapshots flatten to
    identical pair lists — the determinism contract every transport
    (Prometheus text, CSV, assertions) inherits.
    """
    pairs: List[Tuple[str, float]] = []

    def walk(node: Mapping, stem: str) -> None:
        for key, value in node.items():
            name = f"{stem}{sep}{key}" if stem else str(key)
            if isinstance(value, Mapping):
                walk(value, name)
            elif isinstance(value, bool):
                pairs.append((name, 1.0 if value else 0.0))
            elif isinstance(value, (int, float)):
                pairs.append((name, float(value)))

    walk(snapshot, prefix)
    pairs.sort()
    return pairs


def snapshot_prometheus(snapshot: Mapping, prefix: str = "fleet_") -> str:
    """One snapshot as Prometheus gauges (textfile-collector style)."""
    lines: List[str] = []
    for name, value in flatten_snapshot(snapshot, sep="_"):
        lines.append(f"{_prom_name(prefix + name)} {_prom_value(value)}")
    return "\n".join(lines) + "\n" if lines else ""


class SnapshotWriter:
    """Append telemetry snapshots to JSONL, mirroring the latest to .prom.

    Each :meth:`append` writes one ``json.dumps(..., sort_keys=True)``
    line (append mode, flushed per snapshot so a crash loses at most
    the torn last line) and, when ``prom_path`` is set, atomically
    replaces that file with the latest snapshot's Prometheus rendering
    — the textfile-collector contract where scrape always sees a
    complete exposition.
    """

    def __init__(self, path: str, prom_path: Optional[str] = None,
                 prom_prefix: str = "fleet_") -> None:
        self.path = path
        self.prom_path = prom_path
        self.prom_prefix = prom_prefix
        self.count = 0
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        self._handle = open(path, "a")

    def append(self, snapshot: Mapping) -> None:
        self._handle.write(json.dumps(snapshot, sort_keys=True))
        self._handle.write("\n")
        self._handle.flush()
        self.count += 1
        if self.prom_path:
            tmp = self.prom_path + ".tmp"
            with open(tmp, "w") as handle:
                handle.write(
                    snapshot_prometheus(snapshot, prefix=self.prom_prefix)
                )
            os.replace(tmp, self.prom_path)

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "SnapshotWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_snapshots(path: str) -> List[Dict]:
    """Read a JSONL snapshot series back; torn/blank lines are skipped."""
    return read_jsonl(path)[0]
