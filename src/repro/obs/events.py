"""The simulation event bus and its typed event vocabulary.

Every dynamic phenomenon the NVP literature cares about — power
outages, platform state transitions, the backup/restore lifecycle,
policy decisions, threshold recomputation — is published on one
:class:`EventBus` as a named :class:`Event` stamped with simulation
time and a monotonic sequence number.

Design constraints:

* **near-zero overhead when disabled** — ``emit`` returns before
  constructing an :class:`Event` unless someone subscribed to that
  event name, and producers guard their calls with a plain
  ``bus is not None`` test, so an un-observed simulation allocates
  nothing on the hot path;
* **deterministic ordering** — the sequence number makes event order
  total even when many events share one tick timestamp;
* **delivered as emitted** — every engine stops its bulk calls before
  event ticks, so a platform emits only on ticks the bus clock is
  stamped for, and no emit needs buffering or re-sorting.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

# -- event vocabulary --------------------------------------------------------

#: Simulation lifecycle.
SIM_BEGIN = "sim.begin"
SIM_END = "sim.end"
#: Per-tick sample (state, instructions, stored energy).  Emitted only
#: when a subscriber asked for it — it is the one per-tick event, and
#: the one event that forces the exact tick engine (subscribing to
#: anything else keeps the steady-state fast-forward enabled; see
#: ``docs/performance.md``).
TICK = "sim.tick"
#: Coarse periodic sample (state, tick index) emitted every
#: ``sample_stride`` ticks when the simulator was configured with a
#: stride.  Unlike :data:`TICK` it is synthesizable from run-length
#: fast-forward output, so it is fast-path compatible.
SAMPLE = "sim.sample"
#: Platform state machine changed state ("off" -> "run", ...).
STATE_TRANSITION = "state.transition"
#: Harvested power crossed the operating threshold downward / upward.
OUTAGE_BEGIN = "outage.begin"
OUTAGE_END = "outage.end"
#: Backup lifecycle (hardware backup controller).
BACKUP_START = "backup.start"
BACKUP_COMMIT = "backup.commit"
BACKUP_FAIL = "backup.fail"
#: Restore lifecycle.
RESTORE_START = "restore.start"
RESTORE_COMMIT = "restore.commit"
RESTORE_FAIL = "restore.fail"
#: Successful power-up (``cold=True`` for a cold start with no image).
WAKE = "wake"
#: Supply collapsed mid-run before a backup could trigger.
POWER_COLLAPSE = "power.collapse"
#: Adaptive-margin feedback.
MARGIN_RAISE = "margin.raise"
MARGIN_DECAY = "margin.decay"
#: Energy-threshold plan (re)computed.
THRESHOLD_RECOMPUTE = "threshold.recompute"
#: A power-management policy made a decision (DPM throttle,
#: frequency-scaling recommendation, ML configuration match).
POLICY_DECISION = "policy.decision"
#: Experiment-engine sweep lifecycle (one simulation per point).
SWEEP_BEGIN = "sweep.begin"
SWEEP_POINT = "sweep.point"
SWEEP_END = "sweep.end"
#: Fleet-kernel lifecycle (N devices advanced in lockstep).
FLEET_BEGIN = "fleet.begin"
FLEET_DEVICE = "fleet.device"
FLEET_END = "fleet.end"
#: Periodic fleet-telemetry sample: the payload carries one population
#: snapshot (``data["snapshot"]``) — devices per state, energy
#: percentiles, progress rate, outage fraction.  Emitted by
#: :class:`repro.fleet.telemetry.FleetTelemetry` at its cadence, never
#: per tick, so it is dashboard-rate by construction.
FLEET_SAMPLE = "fleet.sample"

#: Every event name the stack emits, for validation and summaries.
EVENT_NAMES: Tuple[str, ...] = (
    SIM_BEGIN,
    SIM_END,
    TICK,
    SAMPLE,
    STATE_TRANSITION,
    OUTAGE_BEGIN,
    OUTAGE_END,
    BACKUP_START,
    BACKUP_COMMIT,
    BACKUP_FAIL,
    RESTORE_START,
    RESTORE_COMMIT,
    RESTORE_FAIL,
    WAKE,
    POWER_COLLAPSE,
    MARGIN_RAISE,
    MARGIN_DECAY,
    THRESHOLD_RECOMPUTE,
    POLICY_DECISION,
    SWEEP_BEGIN,
    SWEEP_POINT,
    SWEEP_END,
    FLEET_BEGIN,
    FLEET_DEVICE,
    FLEET_END,
    FLEET_SAMPLE,
)

#: Every event name except the per-tick :data:`TICK` sample — the
#: subscription set that keeps the fast-forward engine enabled.  The
#: default recording set for CLI exporters.
NON_TICK_EVENT_NAMES: Tuple[str, ...] = tuple(
    name for name in EVENT_NAMES if name != TICK
)


class Event:
    """One published event.

    Attributes:
        name: event name (one of :data:`EVENT_NAMES`).
        t_s: simulation time, seconds.
        seq: monotonic per-bus sequence number (total order).
        data: event payload.
    """

    __slots__ = ("name", "t_s", "seq", "data")

    def __init__(self, name: str, t_s: float, seq: int, data: Dict) -> None:
        self.name = name
        self.t_s = t_s
        self.seq = seq
        self.data = data

    def to_dict(self) -> Dict:
        """JSON-serialisable form (used by the JSONL exporter)."""
        return {"name": self.name, "t_s": self.t_s, "seq": self.seq, **self.data}

    def __repr__(self) -> str:
        return f"Event({self.name!r}, t={self.t_s:.6g}s, seq={self.seq}, {self.data})"


Subscriber = Callable[[Event], None]


class EventBus:
    """Publish/subscribe hub for simulation events.

    Producers call :meth:`emit`; consumers :meth:`subscribe` either to
    everything or to a set of event names.  The bus carries the
    simulation clock (:attr:`now_s`): the simulator stamps it before
    every call into the platform, an exact tick or the first tick of a
    bulk call, so producers deeper in the stack (platform, policies)
    need no time plumbing of their own.
    """

    def __init__(self) -> None:
        self.now_s: float = 0.0
        self._seq = 0
        self._all: List[Subscriber] = []
        self._named: Dict[str, List[Subscriber]] = {}

    # -- subscription ------------------------------------------------------

    @property
    def enabled(self) -> bool:
        """True if any subscriber is attached."""
        return bool(self._all) or bool(self._named)

    def wants(self, name: str) -> bool:
        """True if an emit of ``name`` would reach a subscriber."""
        return bool(self._all) or name in self._named

    def subscribe(
        self, callback: Subscriber, names: Optional[Iterable[str]] = None
    ) -> Subscriber:
        """Attach a subscriber (to all events, or to ``names`` only).

        Returns the callback, so it can be passed to
        :meth:`unsubscribe` later.
        """
        if names is None:
            self._all.append(callback)
        else:
            for name in names:
                self._named.setdefault(name, []).append(callback)
        return callback

    def unsubscribe(self, callback: Subscriber) -> None:
        """Detach a subscriber wherever it is registered."""
        if callback in self._all:
            self._all.remove(callback)
        for listeners in list(self._named.values()):
            if callback in listeners:
                listeners.remove(callback)
        self._named = {k: v for k, v in self._named.items() if v}

    def record(self, names: Optional[Iterable[str]] = None) -> "EventLog":
        """Attach and return a collecting :class:`EventLog`."""
        log = EventLog()
        self.subscribe(log.append, names)
        return log

    # -- publication -------------------------------------------------------

    def emit(self, name: str, t_s: Optional[float] = None, **data) -> Optional[Event]:
        """Publish an event; returns it, or None if nobody listens.

        ``t_s`` defaults to the bus clock (:attr:`now_s`).  The
        :class:`Event` object is only constructed when at least one
        subscriber will receive it.
        """
        named = self._named.get(name)
        if not self._all and not named:
            return None
        self._seq += 1
        event = Event(name, self.now_s if t_s is None else t_s, self._seq, data)
        for callback in self._all:
            callback(event)
        if named:
            for callback in named:
                callback(event)
        return event


class EventLog:
    """An ordered, queryable collection of events.

    The standard sink: subscribe it to a bus (``bus.record()``) and
    hand it to the exporters afterwards.
    """

    def __init__(self, events: Optional[List[Event]] = None) -> None:
        self.events: List[Event] = list(events) if events else []

    def append(self, event: Event) -> None:
        self.events.append(event)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)

    def __getitem__(self, index):
        return self.events[index]

    def names(self) -> List[str]:
        """Event names in publication order."""
        return [event.name for event in self.events]

    def counts(self) -> Dict[str, int]:
        """Event count per name."""
        totals: Dict[str, int] = {}
        for event in self.events:
            totals[event.name] = totals.get(event.name, 0) + 1
        return totals

    def filter(self, *names: str) -> "EventLog":
        """A new log holding only the named events (order preserved)."""
        wanted = set(names)
        return EventLog([event for event in self.events if event.name in wanted])

    def between(self, start_s: float, stop_s: float) -> "EventLog":
        """Events with ``start_s <= t_s < stop_s``."""
        return EventLog(
            [event for event in self.events if start_s <= event.t_s < stop_s]
        )
