"""Run-length event synthesis: observability that survives the fast path.

The steady-state fast-forward engine advances through analytically
predictable tick runs in bulk, so nothing walks the trace tick by tick
— yet subscribers expect the exact engine's event stream.  The
:class:`FastPathEventSynthesizer` reconstructs that stream, bitwise
identical for every non-TICK event, from three sources:

* **outage crossings** precomputed once from the rectified power trace
  by :func:`~repro.harvest.outage.outage_intervals`, the same
  intervals :func:`~repro.harvest.outage.analyze_outages` counts;
* **platform emits staged** by the :class:`~repro.obs.events.EventBus`
  during ``fast_forward`` (threshold/restore/wake events, stamped with
  their tick via :meth:`~repro.obs.events.EventBus.set_clock`);
* **state transitions and coarse samples** synthesized from the
  ``(state, ticks)`` runs the fast path returns.

The merged stream is delivered in the exact engine's per-tick phase
order — outage crossings first, then platform-interior emits, then the
state transition, then the coarse :data:`~repro.obs.events.SAMPLE` —
so a non-TICK subscriber cannot tell which engine ran.  Equivalence is
property-tested across presets and randomized traces in
``tests/test_obs_synth.py``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.harvest.outage import outage_intervals
from repro.harvest.traces import PowerTrace
from repro.obs import events as ev
from repro.obs.events import EventBus, StagedEvent

#: Per-tick emission phases of the exact engine, used as merge keys:
#: the simulator updates outage tracking before ``platform.tick``,
#: the platform emits its interior events during the tick, the
#: simulator emits the state transition after the tick returns, and
#: the coarse sample closes the tick.
PHASE_OUTAGE = 0
PHASE_PLATFORM = 1
PHASE_TRANSITION = 2
PHASE_SAMPLE = 3


class FastPathEventSynthesizer:
    """Emits the exact engine's non-TICK event stream from run lengths.

    One instance serves one simulation: the simulator creates it
    whenever a bus is attached, calls :meth:`integrate` after every
    bulk segment, :meth:`flush_outages` before every exact tick
    (hybrid runs interleave both engines), and :meth:`finish` at the
    end.  It is the only outage emitter, so an exact-only run (a
    ``sim.tick`` subscriber, or both bulk paths switched off) replays
    the same crossings.

    Args:
        bus: the event bus to publish on.
        p_dc_w: the full rectified per-tick power array (the
            simulator's vectorized pre-pass output).
        threshold_w: operating threshold for outage events.
        dt_s: tick duration.
        sample_stride: emit a :data:`~repro.obs.events.SAMPLE` every
            this many ticks (0 disables sampling).
    """

    def __init__(
        self,
        bus: EventBus,
        p_dc_w: np.ndarray,
        threshold_w: float,
        dt_s: float,
        sample_stride: int = 0,
    ) -> None:
        if sample_stride < 0:
            raise ValueError("sample stride cannot be negative")
        self.bus = bus
        self.threshold_w = threshold_w
        self.dt_s = dt_s
        self.sample_stride = int(sample_stride)
        # Ticks become plain Python ints so the ``tick * dt`` products
        # are Python float math.  An interval still open at the end of
        # the trace ends at its length, a tick no run reaches:
        # :meth:`finish` closes it at the run's end instead.
        intervals = outage_intervals(PowerTrace(p_dc_w, dt_s), threshold_w)
        self._crossings: List[Tuple[int, bool]] = [
            (int(tick), is_begin)
            for begin, end in intervals
            for tick, is_begin in ((begin, True), (end, False))
        ]
        self._next = 0
        self._below = False
        self._began_s = 0.0

    # -- outage delivery ---------------------------------------------------

    def _emit_crossing(self, t_s: float, is_begin: bool) -> None:
        if is_begin:
            self._below = True
            self._began_s = t_s
            self.bus.emit(ev.OUTAGE_BEGIN, t_s, threshold_w=self.threshold_w)
        else:
            self._below = False
            self.bus.emit(ev.OUTAGE_END, t_s, duration_s=t_s - self._began_s)

    def _take(self, through_tick: int) -> List[Tuple[int, bool]]:
        """Remove and return the pending crossings with
        ``tick <= through_tick``."""
        crossings = self._crossings
        start = stop = self._next
        while stop < len(crossings) and crossings[stop][0] <= through_tick:
            stop += 1
        self._next = stop
        return crossings[start:stop]

    def flush_outages(self, through_tick: int) -> None:
        """Deliver every pending crossing with ``tick <= through_tick``.

        The simulator calls this before each exact tick, where the
        exact engine would have run its incremental outage update.
        """
        for tick, is_begin in self._take(through_tick):
            self._emit_crossing(tick * self.dt_s, is_begin)

    # -- segment delivery --------------------------------------------------

    def integrate(
        self,
        start: int,
        runs: Sequence[Tuple[str, int]],
        staged: Optional[List[StagedEvent]],
        prev_state: Optional[str],
    ) -> None:
        """Synthesize and deliver the events of one fast segment.

        Args:
            start: first tick covered by ``runs``.
            runs: the ``(state, ticks)`` runs ``fast_forward`` returned.
            staged: platform emits captured by the bus during the call.
            prev_state: the simulator's run state before the segment
                (``None`` at the very start of the simulation).
        """
        # (tick, phase, kind, payload) — kind True = outage crossing
        # carrying is_begin; kind False = direct emit carrying
        # (name, t_s, data).  The sort is stable, so staged platform
        # events sharing one tick keep their call order.
        entries: List[Tuple[int, int, bool, object]] = []
        index = start
        state = prev_state
        stride = self.sample_stride
        for run_state, count in runs:
            if run_state != state:
                entries.append(
                    (
                        index,
                        PHASE_TRANSITION,
                        False,
                        (
                            ev.STATE_TRANSITION,
                            None,
                            {"state": run_state, "prev": state},
                        ),
                    )
                )
                state = run_state
            if stride:
                first = index + (-index % stride)
                for tick in range(first, index + count, stride):
                    entries.append(
                        (
                            tick,
                            PHASE_SAMPLE,
                            False,
                            (ev.SAMPLE, None, {"state": run_state, "tick": tick}),
                        )
                    )
            index += count
        for tick, is_begin in self._take(index - 1):
            entries.append((tick, PHASE_OUTAGE, True, is_begin))
        if staged:
            for event in staged:
                entries.append(
                    (
                        event.tick,
                        PHASE_PLATFORM,
                        False,
                        (event.name, event.t_s, event.data),
                    )
                )
        entries.sort(key=lambda e: (e[0], e[1]))
        emit = self.bus.emit
        dt = self.dt_s
        for tick, _phase, is_crossing, payload in entries:
            if is_crossing:
                self._emit_crossing(tick * dt, payload)
            else:
                name, t_s, data = payload
                emit(name, tick * dt if t_s is None else t_s, **data)

    def flush_staged(
        self, through_tick: int, staged: List[StagedEvent]
    ) -> None:
        """Deliver emits staged by a ``fast_forward`` probe that
        returned no runs (e.g. a threshold recompute before deciding
        the state cannot be fast-forwarded).

        Pending outage crossings at or before ``through_tick`` go
        first, matching the exact engine's phase order for the tick
        the probe inspected.
        """
        self.flush_outages(through_tick)
        emit = self.bus.emit
        for event in staged:
            emit(event.name, event.t_s, **event.data)

    # -- end of run --------------------------------------------------------

    def finish(self, ticks_run: int, end_t: float) -> None:
        """Close the stream after the last processed tick.

        Delivers crossings among the processed ticks that no segment
        covered, then closes a still-open outage at ``end_t``.
        """
        if ticks_run:
            self.flush_outages(ticks_run - 1)
        if self._below:
            self._emit_crossing(end_t, False)
