"""Live run summaries: the subscribers behind ``repro observe`` and
``repro sweep --live``.

:class:`LiveSummary` tallies one simulation's event stream as it
happens — event counts, per-state tick counts (duty cycle),
backup/restore success rates — and can print interim progress lines
at a fixed simulated-time interval, so a long run shows signs of life
before the final table.

:class:`SweepMonitor` renders a sweep's progress in place on a TTY —
points done/total, ETA, cache-hit rate, per-worker utilization — from
the ``sweep.begin`` / ``sweep.point`` / ``sweep.end`` bus stream the
runner already emits, so monitoring adds no new instrumentation and
costs nothing when nobody subscribes.

:class:`FleetMonitor` is the fleet's live dashboard (``repro fleet
watch``): it renders the population state bar, energy/progress
percentiles and the storm indicator from ``fleet.sample`` telemetry
snapshots, with the same TTY-in-place / line-buffered-when-piped
discipline as :class:`SweepMonitor`.
"""

from __future__ import annotations

import math
import sys
from typing import Dict, Optional, TextIO

from repro.obs import events as ev
from repro.obs.events import Event, EventBus


class LiveSummary:
    """Streaming aggregation of one simulation's event feed.

    Args:
        interval_s: print a progress line every N simulated seconds
            (None disables interim output).
        stream: where progress lines go (default stdout).
    """

    def __init__(
        self,
        interval_s: Optional[float] = None,
        stream: Optional[TextIO] = None,
    ) -> None:
        # Written so NaN fails too: every comparison with NaN is False.
        if interval_s is not None and not 0 < interval_s < math.inf:
            raise ValueError("interval must be positive and finite")
        self.interval_s = interval_s
        self.stream = stream if stream is not None else sys.stdout
        self.counts: Dict[str, int] = {}
        self.state_ticks: Dict[str, int] = {}
        self.instructions = 0
        self.last_t_s = 0.0
        self._next_report_s = interval_s

    # -- subscription -------------------------------------------------------

    def attach(self, bus: EventBus) -> "LiveSummary":
        """Subscribe to everything on ``bus``; returns self."""
        bus.subscribe(self.on_event)
        return self

    def on_event(self, event: Event) -> None:
        self.counts[event.name] = self.counts.get(event.name, 0) + 1
        self.last_t_s = max(self.last_t_s, event.t_s)
        if event.name == ev.TICK:
            state = event.data.get("state", "?")
            self.state_ticks[state] = self.state_ticks.get(state, 0) + 1
            self.instructions += event.data.get("instructions", 0)
            if (
                self._next_report_s is not None
                and event.t_s >= self._next_report_s
            ):
                self._next_report_s += self.interval_s
                print(self.progress_line(), file=self.stream)

    # -- derived statistics -------------------------------------------------

    @property
    def total_ticks(self) -> int:
        return sum(self.state_ticks.values())

    @property
    def duty_cycle(self) -> float:
        """Fraction of observed ticks spent executing."""
        total = self.total_ticks
        return self.state_ticks.get("run", 0) / total if total else 0.0

    @property
    def backup_success_rate(self) -> float:
        """Committed / attempted backups (1.0 when none attempted)."""
        ok = self.counts.get(ev.BACKUP_COMMIT, 0)
        fail = self.counts.get(ev.BACKUP_FAIL, 0)
        return ok / (ok + fail) if (ok + fail) else 1.0

    @property
    def restore_success_rate(self) -> float:
        """Committed / attempted restores (1.0 when none attempted)."""
        ok = self.counts.get(ev.RESTORE_COMMIT, 0)
        fail = self.counts.get(ev.RESTORE_FAIL, 0)
        return ok / (ok + fail) if (ok + fail) else 1.0

    @property
    def outages(self) -> int:
        return self.counts.get(ev.OUTAGE_BEGIN, 0)

    # -- rendering ----------------------------------------------------------

    def progress_line(self) -> str:
        """One-line interim status."""
        return (
            f"[{self.last_t_s:7.3f}s] duty={self.duty_cycle:.1%} "
            f"backups={self.counts.get(ev.BACKUP_COMMIT, 0)} "
            f"restores={self.counts.get(ev.RESTORE_COMMIT, 0)} "
            f"outages={self.outages} "
            f"instr={self.instructions}"
        )

    def render(self) -> str:
        """The final summary table."""
        lines = [
            f"simulated time     : {self.last_t_s:.3f} s",
            f"duty cycle         : {self.duty_cycle:.1%}",
            f"backup success     : {self.backup_success_rate:.1%} "
            f"({self.counts.get(ev.BACKUP_COMMIT, 0)} ok, "
            f"{self.counts.get(ev.BACKUP_FAIL, 0)} failed)",
            f"restore success    : {self.restore_success_rate:.1%} "
            f"({self.counts.get(ev.RESTORE_COMMIT, 0)} ok, "
            f"{self.counts.get(ev.RESTORE_FAIL, 0)} failed)",
            f"outages observed   : {self.outages}",
            f"instructions       : {self.instructions}",
            "event counts       :",
        ]
        for name in sorted(self.counts):
            if name == ev.TICK:
                continue
            lines.append(f"  {name:22s} {self.counts[name]:>8d}")
        return "\n".join(lines)


class SweepMonitor:
    """In-place TTY progress view for ``repro sweep --live``.

    Subscribes to the sweep lifecycle events and redraws one status
    line per point: done/total with a bar, per-status counts, cache-hit
    rate, ETA extrapolated from the ``sweep.point`` arrival times, and
    aggregate worker utilization (busy seconds across workers divided
    by elapsed wall time x jobs).

    On a TTY the line is redrawn in place (``\\r`` + erase); with
    ``interactive=False`` (what ``repro sweep --live`` uses when
    stdout is piped) each point prints one plain line-buffered progress
    line instead, so logs stay readable.  Events with missing fields
    (a worker died mid-run) degrade to unknowns rather than wedging
    the render.

    Args:
        stream: output stream (default stdout).
        interactive: force in-place (True) or line-buffered (False)
            rendering; ``None`` asks ``stream.isatty()``.
        width: maximum rendered line width.
    """

    def __init__(
        self,
        stream: Optional[TextIO] = None,
        interactive: Optional[bool] = None,
        width: int = 100,
    ) -> None:
        self.stream = stream if stream is not None else sys.stdout
        if interactive is None:
            isatty = getattr(self.stream, "isatty", None)
            interactive = bool(isatty()) if callable(isatty) else False
        self.interactive = interactive
        self.width = max(40, width)
        self.total = 0
        self.jobs = 1
        self.done = 0
        self.ok = 0
        self.cached = 0
        self.failed = 0
        self.started_s: Optional[float] = None
        self.last_s: Optional[float] = None
        #: Busy wall-seconds per worker pid (executed points only).
        self.worker_busy: Dict[int, float] = {}
        #: Total CPU seconds reported by executed points.
        self.cpu_s = 0.0
        #: Max worker peak RSS seen (KB).
        self.peak_rss_kb = 0.0
        self._finished = False

    # -- subscription -------------------------------------------------------

    def attach(self, bus: EventBus) -> "SweepMonitor":
        """Subscribe to the sweep lifecycle on ``bus``; returns self."""
        bus.subscribe(
            self.on_event,
            names=(ev.SWEEP_BEGIN, ev.SWEEP_POINT, ev.SWEEP_END),
        )
        return self

    def on_event(self, event: Event) -> None:
        data = event.data
        if event.name == ev.SWEEP_BEGIN:
            self.total = int(data.get("total") or 0)
            self.jobs = max(1, int(data.get("jobs") or 1))
            self.started_s = event.t_s
            self.last_s = event.t_s
            self._draw()
            return
        if event.name == ev.SWEEP_POINT:
            self.last_s = event.t_s
            self.done += 1
            status = data.get("status")
            if status == "cached":
                self.cached += 1
            elif status == "ok":
                self.ok += 1
            else:
                self.failed += 1
            if status == "ok":
                pid = data.get("pid")
                if pid is not None:
                    busy = self.worker_busy.get(pid, 0.0)
                    self.worker_busy[pid] = busy + float(
                        data.get("wall_s") or 0.0
                    )
            self.cpu_s += float(data.get("cpu_s") or 0.0)
            self.peak_rss_kb = max(
                self.peak_rss_kb, float(data.get("peak_rss_kb") or 0.0)
            )
            self._draw()
            return
        if event.name == ev.SWEEP_END:
            self.last_s = event.t_s
            self._finished = True
            self._draw(final=True)

    # -- derived statistics -------------------------------------------------

    @property
    def elapsed_s(self) -> float:
        """Wall seconds between sweep begin and the last event seen."""
        if self.started_s is None or self.last_s is None:
            return 0.0
        return max(0.0, self.last_s - self.started_s)

    @property
    def hit_rate(self) -> float:
        """Cache hits as a fraction of points seen so far."""
        return self.cached / self.done if self.done else 0.0

    @property
    def utilization(self) -> float:
        """Aggregate worker busy fraction (capped at 1.0)."""
        elapsed = self.elapsed_s
        if elapsed <= 0.0 or not self.worker_busy:
            return 0.0
        busy = sum(self.worker_busy.values())
        return min(1.0, busy / (elapsed * self.jobs))

    @property
    def eta_s(self) -> Optional[float]:
        """Remaining seconds, extrapolated from executed-point pace.

        Cached points land nearly instantly, so the pace counts only
        executed/failed points against elapsed wall time; with nothing
        executed yet (or nothing left) there is no estimate.
        """
        remaining = self.total - self.done
        if remaining <= 0:
            return 0.0
        paced = self.done - self.cached
        elapsed = self.elapsed_s
        if paced <= 0 or elapsed <= 0.0:
            return None
        return remaining * (elapsed / paced)

    # -- rendering ----------------------------------------------------------

    def render(self) -> str:
        """The current status line (no terminal control codes)."""
        total = self.total or "?"
        parts = [f"sweep {self.done}/{total}"]
        if self.total:
            frac = self.done / self.total
            cells = 10
            filled = int(round(frac * cells))
            parts.append("[" + "#" * filled + "." * (cells - filled) + "]")
        parts.append(
            f"{self.ok} ok {self.cached} cached {self.failed} failed"
        )
        parts.append(f"hit {self.hit_rate:.0%}")
        eta = self.eta_s
        if eta is None:
            parts.append("eta ?")
        elif eta > 0:
            parts.append(f"eta {eta:.0f}s")
        if self.worker_busy:
            parts.append(
                f"util {self.utilization:.0%}/{len(self.worker_busy)}w"
            )
        line = " | ".join(parts)
        return line[: self.width]

    def summary_line(self) -> str:
        """The post-sweep one-liner (resources + cache accounting)."""
        pieces = [
            f"live    : {self.done} point(s) in {self.elapsed_s:.2f}s — "
            f"{self.ok} ok, {self.cached} cached, {self.failed} failed; "
            f"cache hit {self.hit_rate:.0%}"
        ]
        if self.worker_busy:
            pieces.append(
                f"util {self.utilization:.0%} over "
                f"{len(self.worker_busy)} worker(s)"
            )
        if self.cpu_s:
            pieces.append(f"cpu {self.cpu_s:.2f}s")
        if self.peak_rss_kb:
            pieces.append(f"peak rss {self.peak_rss_kb / 1024.0:.1f} MB")
        return "; ".join(pieces)

    def _draw(self, final: bool = False) -> None:
        if self.interactive:
            self.stream.write("\r\x1b[2K" + self.render())
            if final:
                self.stream.write("\n" + self.summary_line() + "\n")
            self.stream.flush()
        else:
            # Line-buffered degradation: one plain line per redraw.
            self.stream.write(
                (self.summary_line() if final else self.render()) + "\n"
            )


#: Population states in display order with their state-bar glyphs;
#: states the presets don't emit today render as ``?``.
FLEET_STATE_GLYPHS = (
    ("run", "#"),
    ("backup", "B"),
    ("restore", "R"),
    ("boot", "b"),
    ("charge", "~"),
    ("off", "o"),
    ("done", "d"),
    ("final", "."),
)


class FleetMonitor:
    """Live fleet dashboard for ``repro fleet watch``.

    Renders one status line per telemetry sample: a proportional
    population state bar (``#`` running, ``~`` charging, ``o`` off,
    ``.`` finalized, ...), stored-energy and progress percentiles, the
    fleet outage fraction with a ``STORM`` flag, and finalized-device
    progress.  Driven entirely by the ``fleet.begin`` /
    ``fleet.sample`` / ``fleet.end`` bus stream — the dashboard is a
    subscriber like any other, and costs nothing when not attached.

    Rendering discipline matches :class:`SweepMonitor`: in-place
    redraw on a TTY, one plain line-buffered line per sample when
    piped (``interactive=False``), autodetected via ``isatty``.

    Args:
        stream: output stream (default stdout).
        interactive: force in-place (True) or line-buffered (False)
            rendering; ``None`` asks ``stream.isatty()``.
        width: maximum rendered line width.
        bar_cells: state-bar width in characters.
    """

    def __init__(
        self,
        stream: Optional[TextIO] = None,
        interactive: Optional[bool] = None,
        width: int = 100,
        bar_cells: int = 20,
    ) -> None:
        self.stream = stream if stream is not None else sys.stdout
        if interactive is None:
            isatty = getattr(self.stream, "isatty", None)
            interactive = bool(isatty()) if callable(isatty) else False
        self.interactive = interactive
        self.width = max(40, width)
        self.bar_cells = max(4, bar_cells)
        self.devices = 0
        self.dt_s = 0.0
        self.ticks = 0
        self.samples = 0
        self.storm_samples = 0
        self.finalized = 0
        self.snapshot: Optional[Dict] = None
        self._finished = False

    # -- subscription -------------------------------------------------------

    def attach(self, bus: EventBus) -> "FleetMonitor":
        """Subscribe to the fleet lifecycle on ``bus``; returns self."""
        bus.subscribe(
            self.on_event,
            names=(
                ev.FLEET_BEGIN, ev.FLEET_SAMPLE, ev.FLEET_DEVICE,
                ev.FLEET_END,
            ),
        )
        return self

    def on_event(self, event: Event) -> None:
        data = event.data
        if event.name == ev.FLEET_BEGIN:
            self.devices = int(data.get("devices") or 0)
            self.dt_s = float(data.get("dt_s") or 0.0)
            self._draw()
            return
        if event.name == ev.FLEET_SAMPLE:
            self.snapshot = data.get("snapshot") or {}
            self.samples += 1
            if (self.snapshot.get("outage") or {}).get("storm"):
                self.storm_samples += 1
            self._draw()
            return
        if event.name == ev.FLEET_DEVICE:
            # Device finalizations arrive per device — up to fleet-size
            # times — so they update state silently; the next sample
            # (or the end event) redraws.
            self.finalized += 1
            return
        if event.name == ev.FLEET_END:
            self.ticks = int(data.get("ticks") or 0)
            self._finished = True
            self._draw(final=True)

    # -- rendering ----------------------------------------------------------

    def state_bar(self) -> str:
        """Proportional population bar over the last sample's states."""
        states = (self.snapshot or {}).get("states") or {}
        total = sum(states.values())
        if not total:
            return "?" * self.bar_cells
        known = {name for name, _g in FLEET_STATE_GLYPHS}
        ordered = [
            (name, glyph)
            for name, glyph in FLEET_STATE_GLYPHS
            if states.get(name)
        ] + [
            (name, "?") for name in sorted(states)
            if name not in known and states.get(name)
        ]
        bar = []
        used = 0
        for index, (name, glyph) in enumerate(ordered):
            if index == len(ordered) - 1:
                cells = self.bar_cells - used
            else:
                # At least one cell per populated state, so rare states
                # stay visible in wide fleets.
                cells = max(1, round(states[name] / total * self.bar_cells))
                cells = min(cells, self.bar_cells - used - (len(ordered) - index - 1))
            bar.append(glyph * cells)
            used += cells
        return "".join(bar)[: self.bar_cells]

    def render(self) -> str:
        """The current status line (no terminal control codes)."""
        snap = self.snapshot
        if not snap:
            return f"fleet {self.devices} device(s) starting"
        states = snap.get("states") or {}
        parts = [
            f"fleet {snap.get('t_s', 0.0):.3f}s",
            f"[{self.state_bar()}]",
            " ".join(
                f"{name}:{states[name]}"
                for name, _g in FLEET_STATE_GLYPHS if states.get(name)
            ),
        ]
        energy = snap.get("energy_j") or {}
        if "p50" in energy:
            parts.append(f"E p50 {energy['p50']:.3g}J")
        progress = snap.get("progress") or {}
        if progress:
            parts.append(
                f"fp {progress.get('forward_progress', 0)}"
                f" ({progress.get('run_rate', 0.0):.3g} run-s/s)"
            )
        outage = snap.get("outage") or {}
        fraction = float(outage.get("fraction") or 0.0)
        storm = " STORM" if outage.get("storm") else ""
        parts.append(f"outage {fraction:.0%}{storm}")
        devices = snap.get("devices") or {}
        parts.append(
            f"{devices.get('final', self.finalized)}"
            f"/{devices.get('total', self.devices)} done"
        )
        return " | ".join(p for p in parts if p)

    def summary_line(self) -> str:
        """The post-run one-liner."""
        snap = self.snapshot or {}
        progress = snap.get("progress") or {}
        counters = snap.get("counters") or {}
        pieces = [
            f"fleet   : {self.devices} device(s), "
            f"{self.ticks} tick(s), {self.samples} sample(s)"
        ]
        if progress:
            pieces.append(
                f"fp {progress.get('forward_progress', 0)}"
            )
        if counters:
            pieces.append(
                f"backups {counters.get('backups', 0)} "
                f"restores {counters.get('restores', 0)}"
            )
        if self.samples:
            pieces.append(
                f"storm samples {self.storm_samples}/{self.samples}"
            )
        return "; ".join(pieces)

    def _draw(self, final: bool = False) -> None:
        if self.interactive:
            # In-place redraw must fit one terminal row; piped lines
            # keep the full record.
            self.stream.write("\r\x1b[2K" + self.render()[: self.width])
            if final:
                self.stream.write("\n" + self.summary_line() + "\n")
            self.stream.flush()
        else:
            self.stream.write(
                (self.summary_line() if final else self.render()) + "\n"
            )
