"""The tick-level system simulator.

The simulator owns the time axis: it walks the power trace one 0.1 ms
tick at a time, converts harvested power through the (optional)
rectifier, hands each tick to the platform's state machine, and
aggregates the telemetry into a :class:`SimulationResult`.

Platforms (the NVP and every baseline) implement one method —
``tick(p_in_w, dt_s) -> TickReport`` — plus a small set of reporting
properties; all paradigm-specific behaviour (thresholds, backup,
checkpointing, wait-and-compute) lives inside the platform.

Three engine optimisations keep long traces cheap (see
``docs/performance.md``):

* a **vectorized pre-pass** rectifies the whole trace once with
  numpy, and harvested energy is one prefix sum over the ticks run
  (:func:`harvested_j`), instead of per-tick Python float math;
* a **steady-state fast-forward**: platforms that implement the
  optional ``fast_forward(p_in_w, start, stop, dt_s)`` capability
  advance through runs of analytically predictable ticks ("off"
  charging toward the start threshold, "charge", "done") in bulk.  The
  simulator uses it unless a subscriber explicitly asked for the
  per-tick ``sim.tick`` event — every other event (outages,
  transitions, backup/restore lifecycle, coarse samples) is
  synthesized from the run lengths by
  :class:`~repro.obs.synth.FastPathEventSynthesizer`, bitwise
  identical to the exact engine's stream.  Both paths produce
  bit-identical :class:`SimulationResult`\\ s;
* a **batched exact kernel**: platforms that implement the optional
  ``exact_batch(p_in_w, start, stop, dt_s)`` capability
  (:mod:`repro.system.exactkernel`) advance through runs of
  predictable *active* ``"run"`` ticks in bulk, bit-for-bit identical
  to per-tick execution, stopping before every event tick (threshold
  crossings, deficits, unit boundaries, completions) so events and
  transitions always run the scalar state machine.  Selection is
  subscription-sensitive exactly like fast-forward, with its own
  ``use_exact_batch`` knob and ``sim_ticks{path="exact_batch"}``
  accounting.

Both bulk paths keep one contract: they stop before every event tick
(fast-forward before the tick that reaches the wake target), which
then runs through the platform's own ``tick()``.  Both engines walk a
device with one :class:`RunWalk`, which probes the bulk paths
(fast-forward first), ticks and keeps the run books: the simulator
drives one over the trace, the fleet kernel one per device.  Before
every step the simulator stamps the bus clock and flushes that tick's
outages, so the events a platform emits land in the exact engine's
order.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Dict, List, Optional, Protocol, Tuple, runtime_checkable

import numpy as np

from repro.harvest.outage import DEFAULT_THRESHOLD_W
from repro.harvest.rectifier import Rectifier
from repro.harvest.traces import PowerTrace
from repro.obs import events as ev
from repro.obs.events import EventBus
from repro.obs.metrics import MetricsRegistry
from repro.obs.synth import FastPathEventSynthesizer
from repro.system.result import SimulationResult


@dataclass(frozen=True)
class TickReport:
    """What a platform did during one tick.

    Attributes:
        state: platform state during the tick (``"off"``, ``"run"``,
            ``"backup"``, ``"restore"``, ``"charge"``, ``"done"``).
        instructions: instructions executed this tick.
    """

    state: str
    instructions: int = 0


@runtime_checkable
class Platform(Protocol):
    """The interface every simulated platform implements.

    Platforms may additionally implement the optional fast-path
    capability ``fast_forward(p_in_w, start, stop, dt_s)`` returning a
    list of ``(state, ticks)`` runs (or ``None``); see
    :meth:`repro.system.fastpath.DormantCharging.fast_forward` for
    the contract.
    The analogous active-path capability
    ``exact_batch(p_in_w, start, stop, dt_s)`` bulk-executes
    predictable powered-on ticks bit-exactly; see
    :meth:`repro.core.nvp.NVPPlatform.exact_batch` and
    :mod:`repro.system.exactkernel`.
    """

    label: str

    def tick(self, p_in_w: float, dt_s: float) -> TickReport: ...

    @property
    def finished(self) -> bool: ...

    def stats(self) -> Dict[str, float]:
        """Counter snapshot merged into the result (see platform docs)."""
        ...


#: Platform counters stored as integer result fields.
_INT_STAT_KEYS = (
    "forward_progress",
    "total_executed",
    "lost_instructions",
    "units_completed",
    "backups",
    "restores",
    "failed_backups",
    "failed_restores",
    "rollbacks",
)

#: Platform counters stored as float result fields.
_FLOAT_STAT_KEYS = ("consumed_j", "backup_energy_j", "restore_energy_j")


def assemble_result(
    platform: Platform,
    state_time: Dict[str, float],
    ticks_run: int,
    dt_s: float,
    completion_time_s: Optional[float],
    harvested_j: float,
) -> SimulationResult:
    """Fold a finished platform's counters into a result.

    Shared by :meth:`SystemSimulator.run` and the fleet kernel
    (:mod:`repro.fleet.kernel`) so every engine materialises
    :class:`SimulationResult` fields identically: known counters land
    as typed fields, everything else the platform reports goes to
    ``extras``.
    """
    stats = platform.stats()
    result = SimulationResult(
        label=platform.label,
        duration_s=ticks_run * dt_s,
        completed=platform.finished,
        completion_time_s=completion_time_s,
        state_time_s=state_time,
        harvested_j=harvested_j,
    )
    for key in _INT_STAT_KEYS:
        if key in stats:
            setattr(result, key, int(stats.pop(key)))
    for key in _FLOAT_STAT_KEYS:
        if key in stats:
            setattr(result, key, float(stats.pop(key)))
    result.extras = {k: float(v) for k, v in stats.items()}
    return result


class RunWalk:
    """One device's walk through its ticks, and its run books.

    :meth:`SystemSimulator.run` drives one walk over the whole trace,
    and the fleet kernel (:mod:`repro.fleet.kernel`) one per device, a
    lockstep tick at a time, so both engines probe, tick and keep books
    with this one copy.  The walk runs the ticks of
    ``p_in_w[start:stop]``, and :attr:`index` counts the ticks run.
    ``paths`` names the bulk paths in probe order; a path that misses
    is disarmed, so a platform stuck in an unbatchable state does not
    pay a failed call per tick, and any state transition re-arms every
    path.  A bulk run stops before an event tick, where the same probe
    would miss, so the tick after it runs exactly and then re-arms
    every path too.

    Consecutive ticks of one state, from scalar ticks and bulk runs
    alike, merge into the open run (:attr:`state`, :attr:`ticks`) as
    an integer count; a transition flushes it into :attr:`state_time`
    with a single ``ticks * dt`` product.
    """

    __slots__ = (
        "platform", "p_in_w", "start", "stop", "dt", "paths", "armed",
        "rejoin", "index", "bulk_ticks", "state_time", "state", "ticks",
        "completion_time",
    )

    def __init__(self, platform: Platform, p_in_w: List[float], start: int,
                 stop: int, dt_s: float, paths: List[str]) -> None:
        self.platform = platform
        self.p_in_w = p_in_w
        self.start = start
        self.stop = stop
        self.dt = dt_s
        # ``(name, bound method)`` of each named path the platform has;
        # ``self.paths[armed:]`` are the ones still armed.
        self.paths = tuple(
            (name, getattr(platform, name)) for name in paths
            if getattr(platform, name, None) is not None
        )
        self.armed = 0
        self.rejoin = False
        self.index = 0
        #: Ticks run by each bulk path.
        self.bulk_ticks = {name: 0 for name, _ in self.paths}
        self.state_time: Dict[str, float] = {}
        self.state: Optional[str] = None
        self.ticks = 0
        self.completion_time: Optional[float] = None

    def step(self):
        """Run one bulk run or one scalar tick: returns the bulk
        path's ``(state, ticks)`` runs, or the :class:`TickReport`."""
        index = self.index
        paths = self.paths
        while self.armed < len(paths):
            name, advance = paths[self.armed]
            runs = advance(self.p_in_w, self.start + index, self.stop, self.dt)
            if runs:
                self.account(runs)
                self.bulk_ticks[name] += self.index - index
                return runs
            self.armed += 1
        report = self.platform.tick(self.p_in_w[self.start + index], self.dt)
        self.index = index + 1
        if self.add(report.state, 1) or self.rejoin:
            self.armed = 0
        self.rejoin = False
        return report

    def account(self, runs: List[Tuple[str, int]]) -> None:
        """Book ``(state, ticks)`` runs advanced outside the platform's
        ``tick()``; the next step runs exactly."""
        for state, count in runs:
            self.add(state, count)
            self.index += count
        self.armed = len(self.paths)
        self.rejoin = True

    def add(self, state: str, ticks: int) -> bool:
        """Account ``ticks`` ticks of ``state``; True on a transition."""
        if state == self.state:
            self.ticks += ticks
            return False
        self.flush()
        self.state = state
        self.ticks = ticks
        return True

    def flush(self) -> Dict[str, float]:
        """Close the open run into :attr:`state_time` and return it."""
        if self.ticks:
            self.state_time[self.state] = (
                self.state_time.get(self.state, 0.0) + self.ticks * self.dt
            )
            self.ticks = 0
        return self.state_time

    def finished(self) -> bool:
        """True on the first call after a step that left the platform
        finished, which stamps :attr:`completion_time`.

        The stamp is one past the finishing tick on every path: an
        ``"isa"``-mode batch consumes the finishing tick (unlike the
        recurrence kernel, which stops before it), so callers check
        after every step.
        """
        if self.completion_time is None and self.platform.finished:
            self.completion_time = self.index * self.dt
            return True
        return False


def harvested_j(p_dc: np.ndarray, ticks_run: int, dt_s: float) -> float:
    """Energy harvested over the first ``ticks_run`` ticks of ``p_dc``.

    ``np.cumsum`` adds left to right, so the prefix sum of any one
    run length has the same bits whether the array is the whole trace
    or a fleet device's slice of the shared power array.
    """
    if not ticks_run:
        return 0.0
    return float(np.cumsum(p_dc[:ticks_run])[-1] * dt_s)


class SystemSimulator:
    """Walks a power trace through a platform.

    Args:
        trace: the harvested-power trace (pre-rectifier).
        platform: the platform under test.
        rectifier: optional AC-DC front end; ``None`` applies the trace
            directly (use when the trace is already a DC profile).
        stop_when_finished: end the simulation as soon as the workload
            completes.
        telemetry: optional :class:`~repro.system.telemetry.Telemetry`
            recorder capturing the per-tick time series (subscribed to
            the event bus; one is created when none was given).
        bus: optional :class:`~repro.obs.events.EventBus`.  The
            simulator stamps the bus clock each tick and publishes
            lifecycle, state-transition, outage, and per-tick events;
            the platform (if it exposes a ``bus`` attribute) publishes
            its own backup/restore/policy events on the same bus.
        metrics: optional :class:`~repro.obs.metrics.MetricsRegistry`;
            run aggregates (state seconds, energy, platform counters)
            are published into it after the run, labeled by platform.
        outage_threshold_w: operating threshold for live outage events
            (only used when a bus is attached).
        sample_stride: emit a coarse ``sim.sample`` event every this
            many ticks, an integer (0, the default, disables sampling).
            Unlike ``sim.tick`` the coarse sample is synthesized on the
            fast path, so it is the observable heartbeat to use in
            sweeps.
        use_fast_forward: fast-path policy.  ``None`` (default) uses
            the platform's ``fast_forward`` capability unless a
            subscriber asked for the per-tick ``sim.tick`` event —
            every other subscription is served bit-identically from
            run-length synthesis; ``False`` forces exact per-tick
            execution (benchmark/debug knob); ``True`` behaves like
            ``None`` (a ``sim.tick`` subscriber still forces the
            exact path, since per-tick samples cannot be
            synthesized).
        use_exact_batch: batched active-path policy, same tri-state
            semantics as ``use_fast_forward`` applied to the
            platform's ``exact_batch`` capability
            (:mod:`repro.system.exactkernel`).  The two knobs are
            independent: either engine optimisation can be disabled
            while the other stays on, and results are bit-identical
            in every combination.
    """

    def __init__(
        self,
        trace: PowerTrace,
        platform: Platform,
        rectifier: Optional[Rectifier] = None,
        stop_when_finished: bool = True,
        telemetry=None,
        bus: Optional[EventBus] = None,
        metrics: Optional[MetricsRegistry] = None,
        outage_threshold_w: float = DEFAULT_THRESHOLD_W,
        sample_stride: int = 0,
        use_fast_forward: Optional[bool] = None,
        use_exact_batch: Optional[bool] = None,
    ) -> None:
        # ``True`` is an Integral too, and a fractional stride would
        # sample different ticks on the scalar path and in synthesis.
        if (isinstance(sample_stride, bool)
                or not isinstance(sample_stride, numbers.Integral)):
            raise ValueError(
                f"sample_stride must be an integer, got {sample_stride!r}"
            )
        if sample_stride < 0:
            raise ValueError("sample_stride cannot be negative")
        self.trace = trace
        self.platform = platform
        self.rectifier = rectifier
        self.stop_when_finished = stop_when_finished
        if telemetry is not None and bus is None:
            bus = EventBus()
        self.bus = bus
        self.metrics = metrics
        self.outage_threshold_w = outage_threshold_w
        self.sample_stride = sample_stride
        self.telemetry = telemetry
        self.use_fast_forward = use_fast_forward
        self.use_exact_batch = use_exact_batch
        #: Tick counts by engine path, filled in by :meth:`run`.
        self.ticks_fast_forwarded = 0
        self.ticks_batched = 0
        self.ticks_exact = 0
        if telemetry is not None:
            telemetry.subscribe_to(bus)
        if bus is not None and getattr(platform, "bus", None) is None:
            # Platforms that know the bus protocol pick it up here, so
            # presets and call sites need no extra plumbing.
            try:
                platform.bus = bus  # type: ignore[attr-defined]
            except AttributeError:  # pragma: no cover - frozen platforms
                pass

    def run(self) -> SimulationResult:
        """Execute the full trace (or until completion) and aggregate."""
        dt = self.trace.dt_s
        samples = self.trace.samples_w

        # -- vectorized pre-pass ---------------------------------------
        # Rectify the whole trace once; both engine paths then share
        # the identical per-tick values.
        if self.rectifier is not None:
            p_dc = self.rectifier.output_power_array(samples)
        else:
            p_dc = samples
        # Plain Python floats index ~3x faster than ndarray scalars on
        # the per-tick path, and every platform does scalar math.
        p_in_w = p_dc.tolist()
        n_ticks = len(p_in_w)

        bus = self.bus
        platform = self.platform
        synth: Optional[FastPathEventSynthesizer] = None
        storage = getattr(platform, "storage", None)
        want_ticks = bus is not None and bus.wants(ev.TICK)
        want_samples = bus is not None and self.sample_stride > 0
        # The bulk paths in probe order, each selected by its own knob.
        # Only an explicit ``sim.tick`` subscription forces the exact
        # engine — every other event is synthesized bit-identically
        # from the bulk runs.  A platform that is already finished at
        # entry completes on its first tick; the exact path keeps that
        # accounting.
        paths = []
        if not want_ticks and not platform.finished:
            knobs = {"fast_forward": self.use_fast_forward,
                     "exact_batch": self.use_exact_batch}
            paths = [name for name, knob in knobs.items() if knob is not False]
        if bus is not None:
            # The synthesizer owns ALL outage emission (bulk segments
            # and exact ticks alike) so one state machine sees every
            # tick, whichever engine ran it.
            synth = FastPathEventSynthesizer(
                bus,
                p_dc,
                self.outage_threshold_w,
                dt,
                sample_stride=self.sample_stride,
            )
            bus.emit(
                ev.SIM_BEGIN,
                0.0,
                label=platform.label,
                ticks=n_ticks,
                dt_s=dt,
            )

        walk = RunWalk(platform, p_in_w, 0, n_ticks, dt, paths)
        step, finished = walk.step, walk.finished
        while walk.index < n_ticks:
            if bus is None:
                step()
            else:
                index, prev = walk.index, walk.state
                # A platform emits only at the first tick of a call.
                bus.now_s = index * dt
                synth.flush_outages(index)
                out = step()
                if not isinstance(out, TickReport):
                    synth.integrate(index, out, prev)
                else:
                    state = out.state
                    if state != prev:
                        bus.emit(ev.STATE_TRANSITION, state=state, prev=prev)
                    if want_samples and index % self.sample_stride == 0:
                        bus.emit(ev.SAMPLE, state=state, tick=index)
                    if want_ticks:
                        bus.emit(
                            ev.TICK,
                            state=state,
                            instructions=out.instructions,
                            energy_j=(
                                float(storage.energy_j)
                                if storage is not None else 0.0
                            ),
                        )
            if finished() and self.stop_when_finished:
                break
        ticks_run = walk.index
        self.ticks_fast_forwarded = walk.bulk_ticks.get("fast_forward", 0)
        self.ticks_batched = walk.bulk_ticks.get("exact_batch", 0)
        self.ticks_exact = ticks_run - sum(walk.bulk_ticks.values())

        if bus is not None:
            end_t = ticks_run * dt
            bus.now_s = end_t
            synth.finish(ticks_run, end_t)
            bus.emit(
                ev.SIM_END,
                end_t,
                completed=platform.finished,
                ticks=ticks_run,
            )

        result = assemble_result(
            self.platform, walk.flush(), ticks_run, dt,
            walk.completion_time, harvested_j(p_dc, ticks_run, dt),
        )
        if self.metrics is not None:
            self._publish_metrics(result)
        return result

    def _publish_metrics(self, result: SimulationResult) -> None:
        """Push run aggregates into the attached metrics registry."""
        registry = self.metrics
        label = result.label
        state_time = registry.counter(
            "sim_state_seconds", "seconds per platform state",
            labels=("platform", "state"),
        )
        for state, seconds in result.state_time_s.items():
            state_time.labels(platform=label, state=state).inc(seconds)
        energy = registry.counter(
            "sim_energy_joules", "energy by flow",
            labels=("platform", "flow"),
        )
        for flow, joules in (
            ("harvested", result.harvested_j),
            ("consumed", result.consumed_j),
            ("backup", result.backup_energy_j),
            ("restore", result.restore_energy_j),
        ):
            energy.labels(platform=label, flow=flow).inc(joules)
        ops = registry.counter(
            "sim_operations", "platform operation counts",
            labels=("platform", "op"),
        )
        for op in (
            "backups", "restores", "failed_backups", "failed_restores",
            "rollbacks",
        ):
            ops.labels(platform=label, op=op).inc(getattr(result, op))
        progress = registry.counter(
            "sim_instructions", "instruction accounting",
            labels=("platform", "kind"),
        )
        for kind, value in (
            ("forward_progress", result.forward_progress),
            ("total_executed", result.total_executed),
            ("lost", result.lost_instructions),
        ):
            progress.labels(platform=label, kind=kind).inc(value)
        ticks = registry.counter(
            "sim_ticks", "simulated ticks by engine path",
            labels=("platform", "path"),
        )
        ticks.labels(platform=label, path="fast_forward").inc(
            self.ticks_fast_forwarded
        )
        ticks.labels(platform=label, path="exact_batch").inc(
            self.ticks_batched
        )
        ticks.labels(platform=label, path="exact").inc(self.ticks_exact)
        storage = getattr(self.platform, "storage", None)
        if storage is not None and hasattr(storage, "bind_gauges"):
            storage.bind_gauges(registry, platform=label)
