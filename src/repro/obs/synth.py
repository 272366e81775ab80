"""Run-length event synthesis: observability that survives the fast path.

The bulk engines advance through analytically predictable tick runs
in one call, so nothing walks those ticks one by one — yet
subscribers expect the exact engine's event stream.  The
:class:`FastPathEventSynthesizer` reconstructs that stream, bitwise
identical for every non-TICK event, from two sources:

* **outage crossings** precomputed once from the rectified power trace
  by :func:`~repro.harvest.outage.outage_intervals`, the same
  intervals :func:`~repro.harvest.outage.analyze_outages` counts;
* **state transitions and coarse samples** synthesized from the
  ``(state, ticks)`` runs a bulk call returns.

A bulk call stops before every event tick, so a platform emits from
inside one only at the call's first tick (a lazily re-planned
threshold).  The simulator stamps the bus clock and flushes that
tick's outages before every call into the platform, so those emits
land where the exact engine puts them; the synthesizer then delivers
the rest of the segment in the exact engine's per-tick order — outage
crossings, then the state transition, then the coarse
:data:`~repro.obs.events.SAMPLE` — so a non-TICK subscriber cannot
tell which engine ran.  Equivalence is property-tested across presets
and randomized traces in ``tests/test_obs_synth.py`` and
``tests/test_fastpath_equivalence.py``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.harvest.outage import outage_intervals
from repro.harvest.traces import PowerTrace
from repro.obs import events as ev
from repro.obs.events import EventBus


class FastPathEventSynthesizer:
    """Emits the exact engine's non-TICK event stream from run lengths.

    One instance serves one simulation: the simulator creates it
    whenever a bus is attached, calls :meth:`flush_outages` before
    every call into the platform, :meth:`integrate` after every bulk
    segment (hybrid runs interleave both engines), and :meth:`finish`
    at the end.  It is the only outage emitter, so an exact-only run (a
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

        The simulator calls this before each call into the platform,
        where the exact engine would have run its incremental outage
        update.
        """
        for tick, is_begin in self._take(through_tick):
            self._emit_crossing(tick * self.dt_s, is_begin)

    # -- segment delivery --------------------------------------------------

    def integrate(
        self,
        start: int,
        runs: Sequence[Tuple[str, int]],
        prev_state: Optional[str],
    ) -> None:
        """Synthesize and deliver the events of one bulk segment.

        Events go out in the exact engine's per-tick order: a tick's
        outage crossings, then its state transition, then its coarse
        sample.

        Args:
            start: first tick covered by ``runs``.
            runs: the ``(state, ticks)`` runs the bulk call returned.
            prev_state: the simulator's run state before the segment
                (``None`` at the very start of the simulation).
        """
        emit = self.bus.emit
        dt = self.dt_s
        stride = self.sample_stride
        index = start
        state = prev_state
        for run_state, count in runs:
            if run_state != state:
                self.flush_outages(index)
                emit(
                    ev.STATE_TRANSITION, index * dt,
                    state=run_state, prev=state,
                )
                state = run_state
            if stride:
                first = index + (-index % stride)
                for tick in range(first, index + count, stride):
                    self.flush_outages(tick)
                    emit(ev.SAMPLE, tick * dt, state=run_state, tick=tick)
            index += count
        self.flush_outages(index - 1)

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
