"""The fleet kernel: N heterogeneous devices advanced in lockstep.

One :class:`FleetKernel` walks a whole fleet through simulated time
tick by tick.  Dormant devices (off/charge/done) live in the
struct-of-arrays state (:class:`repro.fleet.soa.FleetArrays`) and
bulk-advance through one charge step per tick; devices that
are powered on step, one lockstep tick at a time, through the same
walk the single-device engine drives.  A device is parked from the
platform's :meth:`~repro.system.fastpath.DormantCharging.dormant_state`
and charges toward its
:meth:`~repro.system.fastpath.DormantCharging.wake_target_j` — the
state and target the single-device fast path reads — and the
charge step stops before the tick that reaches it; the device then
joins the exact path in that same lockstep tick, so its own ``tick()``
runs the wake attempt and every transition executes the same Python
code in both engines.

The per-device :class:`~repro.system.result.SimulationResult` is
therefore **bit-for-bit identical** to running
:class:`~repro.system.simulator.SystemSimulator` on the device's own
sub-trace (property-tested in ``tests/test_fastpath_equivalence.py``):

* the charge step reproduces ``charge_many`` — and hence
  repeated ``storage.step(p, 0.0, dt)`` — exactly (see
  :mod:`repro.fleet.soa`);
* each device steps through the engine's own
  :class:`~repro.system.simulator.RunWalk`, which batches predictable
  ``"run"`` ticks through the platform's ``exact_batch`` (running
  ahead of the lockstep and rejoining at the first event tick), ticks
  the rest and keeps the books; a parked row's dormant ticks join the
  walk as one integer run when it leaves the arrays;
* harvested energy is the engine's
  :func:`~repro.system.simulator.harvested_j` over the device's slice;
* results are materialised through the shared
  :func:`repro.system.simulator.assemble_result`.

Only a device whose storage is a
:class:`~repro.storage.capacitor.Capacitor` is ever parked in the
arrays; the rest (the oracle has no storage, a tiered store or a front
end is not a single capacitor) simply stay on the exact per-tick path —
correctness never depends on a device being parked.
"""

from __future__ import annotations

import math
import os
import time
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.exp.runner import (
    STATUS_OK,
    RunRecord,
    SweepOutcome,
    build_platform,
    build_simulator,
    build_trace,
    build_workload,
    preflight,
)
from repro.fleet.soa import FleetArrays
from repro.fleet.spec import (
    DEVICE_OFFSET_KEY,
    device_config_hash,
    resolve_device_config,
)
from repro.obs import events as ev
from repro.obs.resources import sample_resources, usage_between
from repro.storage.capacitor import Capacitor
from repro.system.presets import standard_rectifier
from repro.system.simulator import (
    RunWalk,
    TickReport,
    assemble_result,
    harvested_j,
)

#: Device lifecycle modes inside the kernel.
MODE_ACTIVE = "active"
MODE_PASSIVE = "passive"
MODE_FINAL = "final"

#: Config keys that determine a device's (pre-offset) trace and its
#: rectified power array; devices agreeing on all of them share one
#: concatenated power segment.
_TRACE_KEYS = (
    "source", "duration_s", "seed", "mean_uw", "profile_index",
    "profile_count", "rectifier",
)


class PowerSegments(NamedTuple):
    """The fleet's shared rectified-power structure.

    Attributes:
        P: concatenated rectified power, one segment per distinct
            trace group, float64.
        dt_s: the fleet-wide tick duration.
        bases: per-device start index into ``P`` (group start plus the
            device's trace offset).
        n_ticks: per-device tick count (trace length minus offset).
    """

    P: np.ndarray
    dt_s: float
    bases: np.ndarray
    n_ticks: np.ndarray


def build_power_segments(configs: List[Dict]) -> PowerSegments:
    """Build the concatenated power array + per-device index structure.

    Devices agreeing on the trace-determining keys (:data:`_TRACE_KEYS`)
    share one rectified segment; each device indexes it from its own
    offset, so per-tick values equal the single engine's pre-pass over
    the device's sub-trace (rectification is elementwise, so
    rectify-then-slice == slice-then-rectify).  This is both the
    kernel's power substrate and the input the outage-correlation
    analyzer reads — correlation needs no simulation, only this
    structure.
    """
    if not configs:
        raise ValueError("fleet needs at least one device")
    groups: Dict[Tuple, Tuple[int, object]] = {}
    parts: List[np.ndarray] = []
    next_start = 0
    dt: Optional[float] = None
    for config in configs:
        key = tuple(config[name] for name in _TRACE_KEYS)
        if key not in groups:
            trace = build_trace(config)
            if dt is None:
                dt = trace.dt_s
            elif trace.dt_s != dt:
                raise ValueError(
                    "fleet devices must share one tick duration"
                )
            if config["rectifier"]:
                p_dc = standard_rectifier().output_power_array(
                    trace.samples_w
                )
            else:
                p_dc = trace.samples_w
            groups[key] = (next_start, trace)
            parts.append(np.ascontiguousarray(p_dc, dtype=np.float64))
            next_start += len(trace)
    bases = np.empty(len(configs), dtype=np.int64)
    n_ticks = np.empty(len(configs), dtype=np.int64)
    for row, config in enumerate(configs):
        start, trace = groups[tuple(config[name] for name in _TRACE_KEYS)]
        offset = trace.offset_ticks(config[DEVICE_OFFSET_KEY])
        bases[row] = start + offset
        n_ticks[row] = len(trace) - offset
    return PowerSegments(
        P=parts[0] if len(parts) == 1 else np.concatenate(parts),
        dt_s=float(dt),
        bases=bases,
        n_ticks=n_ticks,
    )


class _FleetDevice:
    """Book-keeping for one device row."""

    __slots__ = (
        "index", "config", "platform", "storage", "soa",
        "row", "base", "n_ticks", "stop_when_finished",
        "walk",
        "mode", "dormant_state", "result",
    )

    def __init__(self, index: int, config: Dict) -> None:
        self.index = index
        self.config = config
        self.mode = MODE_ACTIVE
        self.dormant_state: Optional[str] = None
        self.result = None

    @property
    def label(self) -> str:
        return self.config.get("label") or self.platform.label


class FleetKernel:
    """Advance a fleet of resolved device configs in lockstep.

    Args:
        configs: fully-resolved device configs
            (:func:`repro.fleet.spec.resolve_device_config` output), one
            per device, in fleet order.
        bus: optional event bus for ``fleet.begin`` / ``fleet.device`` /
            ``fleet.end`` lifecycle events.  Devices themselves run
            without a bus — per-device observability comes from
            :func:`replay_device`, which is exact because fleet results
            are bit-identical to the single engine's.
        telemetry: optional :class:`repro.fleet.telemetry.FleetTelemetry`
            sampled at its own cadence inside the main loop.  ``None``
            (the default) costs one ``is not None`` check per lockstep
            tick and nothing else — the zero-overhead-when-disabled
            discipline — and telemetry only *reads* kernel state, so
            per-device results are bit-identical either way.
    """

    def __init__(self, configs: List[Dict], bus=None, telemetry=None) -> None:
        if not configs:
            raise ValueError("fleet needs at least one device")
        self.bus = bus
        self.telemetry = telemetry
        self.devices: List[_FleetDevice] = []
        self._active: List[_FleetDevice] = []
        self._ends_by_tick: Dict[int, List[_FleetDevice]] = {}
        self.n_passive = 0
        self.ticks_advanced = 0

        segments = build_power_segments(configs)
        self.segments = segments
        self.dt = segments.dt_s
        self.P = segments.P
        # The walks index power per tick, as the single engine does:
        # Python floats index faster than numpy scalars.
        p_in_w = segments.P.tolist()

        # -- device rows ----------------------------------------------
        self.arrays = FleetArrays(len(configs), self.dt)
        for row, config in enumerate(configs):
            dev = _FleetDevice(row, config)
            dev.row = row
            dev.base = int(segments.bases[row])
            dev.n_ticks = int(segments.n_ticks[row])
            dev.stop_when_finished = bool(config["stop_when_finished"])
            workload = build_workload(config)
            dev.platform = build_platform(config, workload)
            dev.storage = getattr(dev.platform, "storage", None)
            # Dormant devices are parked rather than fast-forwarded,
            # so a walk's one bulk path is the batched exact kernel.
            dev.walk = RunWalk(
                dev.platform, p_in_w, dev.base, dev.base + dev.n_ticks,
                self.dt, ["exact_batch"],
            )
            dev.soa = isinstance(dev.storage, Capacitor)
            if dev.soa:
                self.arrays.set_params(row, dev.storage, dev.base)
            else:
                self.arrays.base[row] = dev.base
            self.devices.append(dev)
            self._ends_by_tick.setdefault(dev.n_ticks, []).append(dev)
        self.n_live = len(self.devices)
        for dev in self.devices:
            if not self._route(dev):
                self._active.append(dev)

    @property
    def ticks_batched(self) -> int:
        """Ticks the devices have run through ``exact_batch`` so far."""
        return sum(
            dev.walk.bulk_ticks.get("exact_batch", 0) for dev in self.devices
        )

    # -- passive-row management ----------------------------------------

    def _route(self, dev: _FleetDevice) -> bool:
        """Park the device on its row if it is dormant.

        Returns whether it was parked; a device that was not stays on
        the exact path.  A finished device charges toward an
        unreachable target: a pure ``"done"`` run.
        """
        if not dev.soa:
            return False
        state = dev.platform.dormant_state()
        if state is None:
            return False
        dev.dormant_state = state
        dev.mode = MODE_PASSIVE
        target = (
            math.inf if state == "done" else dev.platform.wake_target_j(self.dt)
        )
        self.arrays.load_row(dev.row, dev.storage, target)
        self.n_passive += 1
        return True

    def _unpark(self, dev: _FleetDevice) -> None:
        """Take a parked row out of the arrays: book its dormant
        ticks into the device's walk, whose next step then runs
        exactly, and sync the storage object."""
        pend = int(self.arrays.pending[dev.row])
        if pend and dev.dormant_state != "done":
            dev.platform.count_dormant_ticks(pend, self.dt)
        dev.walk.account([(dev.dormant_state, pend)] if pend else [])
        self.arrays.pending[dev.row] = 0
        self.arrays.store_row(dev.row, dev.storage)
        self.arrays.retire_row(dev.row)
        self.n_passive -= 1

    def _rejoin(self, rows: np.ndarray) -> None:
        """Hand rows that reach their target to the exact path.

        :meth:`FleetArrays.charge_tick` left this lockstep tick to them,
        so each device's own ``tick()`` runs it (charge, threshold test,
        wake); a failed wake parks it again.
        """
        for row in rows:
            dev = self.devices[row]
            self._unpark(dev)
            dev.mode = MODE_ACTIVE
            dev.dormant_state = None
            self._active.append(dev)

    # -- exact path ----------------------------------------------------

    def _tick_active(self, i: int) -> None:
        still: List[_FleetDevice] = []
        for dev in self._active:
            if dev.mode is not MODE_ACTIVE:
                continue
            walk = dev.walk
            if walk.index > i:
                # A bulk run already ran this tick; the device rejoins
                # the lockstep at the tick its walk stopped before.
                still.append(dev)
                continue
            out = walk.step()
            if walk.finished() and dev.stop_when_finished:
                self._finalize(dev)
                continue
            # Parking and the done rule wait for a scalar tick.
            if not isinstance(out, TickReport):
                still.append(dev)
                continue
            if self._route(dev):
                continue
            if dev.platform.finished and dev.storage is None:
                # No storage to keep integrating (the oracle): the
                # remaining ticks are pure "done" no-ops, account them
                # in bulk and finish the device now.
                walk.account([("done", dev.n_ticks - walk.index)])
                self._finalize(dev)
                continue
            still.append(dev)
        self._active = still

    # -- completion ----------------------------------------------------

    def _finalize(self, dev: _FleetDevice) -> None:
        if dev.mode == MODE_PASSIVE:
            self._unpark(dev)
        walk = dev.walk
        ticks_run = walk.index
        dev.result = assemble_result(
            dev.platform, walk.flush(), ticks_run, self.dt,
            walk.completion_time,
            harvested_j(self.P[dev.base:], ticks_run, self.dt),
        )
        dev.mode = MODE_FINAL
        self.n_live -= 1
        if self.bus is not None:
            self.bus.emit(
                ev.FLEET_DEVICE,
                index=dev.index,
                label=dev.label,
                ticks=ticks_run,
                completed=dev.platform.finished,
                forward_progress=dev.result.forward_progress,
            )

    # -- main loop -----------------------------------------------------

    def run(self) -> List:
        """Advance every device to completion; per-device results."""
        arrays = self.arrays
        power = self.P
        if self.bus is not None:
            self.bus.emit(
                ev.FLEET_BEGIN, devices=len(self.devices), dt_s=self.dt
            )
        telemetry = self.telemetry
        sample_at = telemetry.bind(self) if telemetry is not None else 0
        i = 0
        while self.n_live:
            enders = self._ends_by_tick.get(i)
            if enders:
                for dev in enders:
                    if dev.mode is not MODE_FINAL:
                        self._finalize(dev)
                if not self.n_live:
                    break
            if self.n_passive:
                crossed = arrays.charge_tick(arrays.gather_power(power, i))
                if crossed is not None:
                    self._rejoin(crossed)
            if self._active:
                self._tick_active(i)
            # With telemetry disabled this is the loop's only extra
            # work: a single None check (the zero-overhead contract).
            if telemetry is not None and i >= sample_at:
                sample_at = telemetry.sample(i)
            i += 1
        self.ticks_advanced = i
        if telemetry is not None:
            telemetry.finish(i)
        if self.bus is not None:
            self.bus.emit(
                ev.FLEET_END, devices=len(self.devices), ticks=i
            )
        return [dev.result for dev in self.devices]


def replay_device(config: Dict, **sim_kwargs):
    """Re-run one fleet device through the single-device engine.

    Returns ``(result, simulator)``.  Because fleet results are
    bit-identical to the single engine, this is the fleet's
    drill-down path: full observability (event bus, metrics, exact
    ticking) for any one device without re-running the fleet.
    """
    resolved = resolve_device_config(config)
    trace = build_trace(resolved)
    offset = resolved[DEVICE_OFFSET_KEY]
    if offset:
        trace = trace.tail(offset)
    simulator = build_simulator(resolved, trace, **sim_kwargs)
    return simulator.run(), simulator


def run_fleet(
    configs: List[Dict], cache=None, bus=None, telemetry=None
) -> SweepOutcome:
    """Run a fleet with cache preflight; returns sweep-shaped records.

    Every device is content-hashed (:func:`device_config_hash`) and
    checked against the result cache exactly like a sweep point — a
    cached device is skipped, everything else goes through one
    :class:`FleetKernel` pass and is written back to the cache, so
    fleet runs are resumable and interoperable with ``repro sweep``
    results (an offset-0 device shares the sweep's cache entry).

    ``telemetry`` (a :class:`repro.fleet.telemetry.FleetTelemetry`) is
    handed to the kernel and samples only the *executed* devices —
    cache hits never re-simulate, so they never re-appear in the
    population time series.

    Wall/CPU attribution: the kernel advances all pending devices
    together, so per-record costs are the even share of the batch.
    """
    records = [
        RunRecord(index=index, config=config, key=device_config_hash(config))
        for index, config in enumerate(configs)
    ]
    pending = preflight(records, cache)
    started = time.perf_counter()
    if pending:
        usage_before = sample_resources()
        kernel = FleetKernel(
            [record.config for record in pending], bus=bus,
            telemetry=telemetry,
        )
        results = kernel.run()
        usage = usage_between(usage_before, sample_resources())
        wall_share = (time.perf_counter() - started) / len(pending)
        cpu_share = usage["cpu_s"] / len(pending)
        pid = os.getpid()
        for record, result in zip(pending, results):
            record.status = STATUS_OK
            record.result = result.to_dict()
            record.wall_s = wall_share
            record.cpu_s = cpu_share
            record.peak_rss_kb = usage["peak_rss_kb"]
            record.pid = pid
            if cache is not None:
                cache.put(record.key, {
                    "config": record.config,
                    "result": record.result,
                    "wall_s": record.wall_s,
                })
    return SweepOutcome(
        records=records,
        executed=len(pending),
        cached=len(records) - len(pending),
        failed=0,
        interrupted=0,
        wall_s=time.perf_counter() - started,
    )
