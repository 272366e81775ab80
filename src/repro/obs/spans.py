"""Wall-clock span tracing for the experiment engine.

Simulation-time observability (:mod:`repro.obs.events`) answers "what
did the platform do"; spans answer "where did the *sweep* spend its
wall-clock" — cache lookups, worker simulations, result folding.  A
:class:`SpanTracer` collects named intervals stamped with absolute
Unix time, grouped into logical threads ("runner", one per worker
process), and exports them in the Chrome Trace Event Format, so
``repro sweep --trace out.json`` renders a per-worker timeline with
cache-hit attribution in Perfetto or ``chrome://tracing``.

Worker processes cannot share a tracer object; instead
:func:`repro.exp.runner.execute_run` returns plain span dicts
(``{"name", "start_s", "end_s", "args"}``) in its payload and the
runner imports them with :meth:`SpanTracer.import_worker` under a
``worker-<pid>`` thread.  Absolute timestamps make the merge trivial:
every clock in the trace is the machine's Unix clock.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterable, List

from repro.obs.export import _write_trace

#: The default logical thread: the sweep-coordinating process.
TID_RUNNER = "runner"


class Span:
    """One completed interval.

    Attributes:
        name: span name ("sweep", "run:<label>", "cache.get", ...).
        start_s: absolute Unix start time.
        end_s: absolute Unix end time.
        tid: logical thread name the span belongs to.
        args: attribution payload (cache key, hit flag, status, ...).
    """

    __slots__ = ("name", "start_s", "end_s", "tid", "args")

    def __init__(
        self, name: str, start_s: float, end_s: float, tid: str, args: Dict
    ) -> None:
        self.name = name
        self.start_s = start_s
        self.end_s = end_s
        self.tid = tid
        self.args = args

    @property
    def duration_s(self) -> float:
        return max(0.0, self.end_s - self.start_s)

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, {self.duration_s * 1e3:.3f}ms, "
            f"tid={self.tid!r}, {self.args})"
        )


class SpanTracer:
    """Collects spans across the sweep and exports a Chrome trace."""

    def __init__(self) -> None:
        self.spans: List[Span] = []

    def add(
        self,
        name: str,
        start_s: float,
        end_s: float,
        tid: str = TID_RUNNER,
        **args,
    ) -> Span:
        """Record an already-measured interval."""
        span = Span(name, start_s, end_s, tid, dict(args))
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str, tid: str = TID_RUNNER, **args):
        """Measure a ``with`` block.

        Yields the args dict, so attribution discovered inside the
        block (a cache hit, a run status) can be added before the span
        closes::

            with tracer.span("cache.get", key=key) as attrs:
                entry = lookup(key)
                attrs["hit"] = entry is not None
        """
        attrs = dict(args)
        start = time.time()
        try:
            yield attrs
        finally:
            self.add(name, start, time.time(), tid=tid, **attrs)

    def import_worker(self, spans: Iterable[Dict], pid: int) -> None:
        """Merge span dicts a worker process returned in its payload."""
        tid = f"worker-{pid}"
        for record in spans:
            self.add(
                record["name"],
                float(record["start_s"]),
                float(record["end_s"]),
                tid=tid,
                **record.get("args", {}),
            )

    # -- queries (used by tests and reports) -------------------------------

    def named(self, name: str) -> List[Span]:
        """Spans with an exact name, in record order."""
        return [span for span in self.spans if span.name == name]

    def threads(self) -> List[str]:
        """Logical thread names, runner first, workers sorted."""
        seen = {span.tid for span in self.spans}
        out = [TID_RUNNER] if TID_RUNNER in seen else []
        out.extend(sorted(seen - {TID_RUNNER}))
        return out

    # -- export ------------------------------------------------------------

    def to_chrome(
        self, process_name: str = "repro sweep", pid: int = 0
    ) -> List[Dict]:
        """The spans as Chrome trace events (``ph: "X"`` durations).

        Timestamps are re-based to the earliest span start so the
        timeline begins at zero.
        """
        out: List[Dict] = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": process_name},
            }
        ]
        tids = {name: index for index, name in enumerate(self.threads())}
        for name, tid in tids.items():
            out.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": name},
                }
            )
        origin = min((span.start_s for span in self.spans), default=0.0)
        for span in self.spans:
            out.append(
                {
                    "name": span.name,
                    "cat": "span",
                    "ph": "X",
                    "ts": max(0.0, (span.start_s - origin) * 1e6),
                    "dur": span.duration_s * 1e6,
                    "pid": pid,
                    "tid": tids[span.tid],
                    "args": span.args,
                }
            )
        return out

    def write_chrome(
        self, path: str, process_name: str = "repro sweep"
    ) -> int:
        """Write a Chrome trace JSON file; returns the event count."""
        return _write_trace(self.to_chrome(process_name=process_name), path)
