"""Population telemetry sampled inside the fleet lockstep kernel.

:class:`FleetTelemetry` is the fleet's observatory: bound to a
:class:`~repro.fleet.kernel.FleetKernel` at run start, it wakes at a
fixed tick cadence, takes one vectorized reduction pass over the
population — devices per state, stored energy over the SoA rows,
forward-progress/backup/restore counters, fleet-wide outage fraction —
and folds each scalar series into bounded-memory sketches
(:mod:`repro.obs.fleetstats`), so a 10k-device fleet never
materializes per-device time series.

The contract with the kernel:

* **Zero overhead when disabled.**  ``telemetry=None`` costs the main
  loop exactly one ``is not None`` check per lockstep tick.
* **Read-only.**  Sampling reads kernel/platform state and never
  mutates it, so per-device ``SimulationResults`` are bit-identical
  with telemetry on or off (property-tested in
  ``tests/test_fastpath_equivalence.py``).
* **Deterministic snapshots.**  No wall clock, no RNG: snapshots of
  identical runs are byte-identical JSONL lines, usable as golden
  files.

Snapshots stream through the transport-agnostic layer in
:mod:`repro.obs.export` (JSONL time series + Prometheus textfile) and,
when the kernel has a bus, are also emitted as ``fleet.sample`` events
— which is what the ``repro fleet watch`` dashboard subscribes to.

One sampling caveat, by design: devices running ahead of the lockstep
through the batched exact kernel have already committed their
batched ticks to platform counters, so mid-run counter totals can
lead the lockstep clock by up to one batch.  The final snapshot is
exact — it is taken after every device finalized.

:func:`correlation_report` answers the ROADMAP's cross-device
outage-correlation follow-on *without simulating anything*: outages
are a property of the shared trace structure
(:func:`~repro.fleet.kernel.build_power_segments`), so the windowed
co-outage Jaccard matrix and the storm timeline fall straight out of
the concatenated power array and the per-device offsets.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

import numpy as np

from repro.fleet.kernel import (
    MODE_ACTIVE,
    MODE_FINAL,
    MODE_PASSIVE,
    build_power_segments,
)
from repro.harvest.outage import DEFAULT_THRESHOLD_W
from repro.obs import events as ev
from repro.obs.export import SnapshotWriter
from repro.obs.fleetstats import (
    FixedBinHistogram,
    QuantileDigest,
    co_outage_matrix,
    find_storms,
    windowed_outages,
)

#: Snapshot schema version stamped into every JSONL line.
SNAPSHOT_SCHEMA = 1

#: Default number of samples across the longest device trace when no
#: explicit cadence is given.
DEFAULT_SAMPLES = 50

#: A sample is "stormy" when at least this fraction of in-trace
#: devices sees sub-threshold power.
DEFAULT_STORM_FRACTION = 0.5

#: Energy histogram edges: log-spaced femtojoules→joules covers every
#: storage preset without per-fleet tuning.
_ENERGY_EDGES = (1e-15, 1.0, 120)

#: Population percentiles reported per snapshot (matches fleet.report).
_SNAPSHOT_PCTS = (5.0, 50.0, 95.0)


class FleetTelemetry:
    """Streaming population statistics for one fleet run.

    Args:
        every_s: sampling cadence in simulated seconds.  ``None``
            derives one from the longest device trace
            (:data:`DEFAULT_SAMPLES` samples end to end).  The cadence
            is rounded to a whole number of ticks, never below one.
        out: optional JSONL path; every snapshot appends one line, and
            a sibling ``<out>.prom`` Prometheus textfile is atomically
            replaced with the latest snapshot.
        threshold_w: outage threshold for the fleet outage fraction.
        storm_fraction: outage fraction at which a sample is flagged
            as a storm.
    """

    def __init__(
        self,
        every_s: Optional[float] = None,
        out: Optional[str] = None,
        threshold_w: float = DEFAULT_THRESHOLD_W,
        storm_fraction: float = DEFAULT_STORM_FRACTION,
    ) -> None:
        # Written so NaN fails too: every comparison with NaN is False.
        if every_s is not None and not 0 < every_s < math.inf:
            raise ValueError("telemetry every_s must be positive and finite")
        self.every_s = every_s
        self.out = out
        self.threshold_w = float(threshold_w)
        self.storm_fraction = float(storm_fraction)
        self.snapshots = 0
        self.storm_samples = 0
        self.last: Optional[Dict] = None
        self.energy_hist = FixedBinHistogram.log_bins(*_ENERGY_EDGES)
        self.outage_digest = QuantileDigest()
        self.progress_digest = QuantileDigest()
        self._writer: Optional[SnapshotWriter] = None
        self._kernel = None
        self._stride = 1
        self._prev_run_s = 0.0
        self._prev_t_s = 0.0

    # -- kernel-facing hooks ------------------------------------------

    def bind(self, kernel) -> int:
        """Attach to a kernel at run start; returns the first sample tick."""
        self._kernel = kernel
        dt = kernel.dt
        longest = int(kernel.segments.n_ticks.max())
        every = self.every_s
        if every is None:
            every = max(longest, DEFAULT_SAMPLES) * dt / DEFAULT_SAMPLES
        self._stride = max(1, int(round(every / dt)))
        self.every_s = self._stride * dt
        if self.out and self._writer is None:
            self._writer = SnapshotWriter(
                self.out, prom_path=self.out + ".prom"
            )
        return self._stride - 1

    def sample(self, i: int) -> int:
        """Take one population sample after tick ``i``; next sample tick."""
        self._record(self._snapshot(i + 1))
        return i + self._stride

    def finish(self, ticks: int) -> None:
        """Final exact snapshot after every device finalized."""
        snap = self._snapshot(ticks)
        snap["final"] = True
        self._record(snap)
        if self._writer is not None:
            self._writer.close()

    # -- the reduction pass -------------------------------------------

    def _snapshot(self, ticks: int) -> Dict:
        kernel = self._kernel
        dt = kernel.dt
        t_s = ticks * dt
        states: Dict[str, int] = {}
        forward_progress = 0
        backups = 0
        restores = 0
        run_s_total = 0.0
        active_energy: List[float] = []
        for dev in kernel.devices:
            mode = dev.mode
            if mode is MODE_FINAL:
                state = "final"
                result = dev.result
                forward_progress += result.forward_progress
                backups += result.backups
                restores += result.restores
                run_s_total += result.state_time_s.get("run", 0.0)
            else:
                if mode is MODE_PASSIVE:
                    state = dev.dormant_state or "off"
                else:
                    state = dev.walk.state or "boot"
                    if dev.storage is not None:
                        active_energy.append(dev.storage.energy_j)
                stats = dev.platform.stats()
                forward_progress += int(stats.get("forward_progress", 0))
                backups += int(stats.get("backups", 0))
                restores += int(stats.get("restores", 0))
                walk = dev.walk
                run_s_total += walk.state_time.get("run", 0.0)
                if walk.state == "run":
                    run_s_total += walk.ticks * dt
            states[state] = states.get(state, 0) + 1

        # Stored energy: dormant rows live in the SoA arrays (the
        # storage objects are stale until flushed), active rows on
        # their storage objects.  Final devices are excluded — they
        # left the population.
        energies = kernel.arrays.alive_energy()
        if active_energy:
            energies = np.concatenate(
                [energies, np.asarray(active_energy, dtype=np.float64)]
            )
        energy: Dict[str, float] = {"count": int(energies.size)}
        if energies.size:
            energy["sum"] = float(energies.sum())
            energy["mean"] = float(energies.mean())
            energy["min"] = float(energies.min())
            energy["max"] = float(energies.max())
            pcts = np.percentile(energies, _SNAPSHOT_PCTS)
            for pct, value in zip(_SNAPSHOT_PCTS, pcts):
                energy[f"p{round(pct):02d}"] = float(value)
            self.energy_hist.observe_many(energies)

        # Fleet outage fraction at the last executed tick, over
        # devices still inside their trace.
        segments = kernel.segments
        tick = ticks - 1
        outage_fraction = 0.0
        if tick >= 0:
            in_trace = tick < segments.n_ticks
            if in_trace.any():
                pos = np.where(in_trace, segments.bases + tick, 0)
                below = kernel.P[pos] < self.threshold_w
                outage_fraction = float(below[in_trace].mean())
        storm = outage_fraction >= self.storm_fraction

        n_devices = len(kernel.devices)
        window_s = max(t_s - self._prev_t_s, dt)
        rate_ips = max(run_s_total - self._prev_run_s, 0.0) / window_s
        self._prev_run_s = run_s_total
        self._prev_t_s = t_s
        return {
            "schema": SNAPSHOT_SCHEMA,
            "tick": ticks,
            "t_s": t_s,
            "dt_s": dt,
            "devices": {
                "total": n_devices,
                "live": kernel.n_live,
                "passive": kernel.n_passive,
                "final": n_devices - kernel.n_live,
            },
            "states": dict(sorted(states.items())),
            "energy_j": energy,
            "progress": {
                "forward_progress": forward_progress,
                "run_s_total": run_s_total,
                "run_rate": rate_ips,
            },
            "counters": {
                "backups": backups,
                "restores": restores,
                "ticks_batched": kernel.ticks_batched,
            },
            "outage": {
                "fraction": outage_fraction,
                "threshold_w": self.threshold_w,
                "storm": storm,
            },
        }

    def _record(self, snap: Dict) -> None:
        self.snapshots += 1
        self.last = snap
        if snap["outage"]["storm"]:
            self.storm_samples += 1
        self.outage_digest.observe(snap["outage"]["fraction"])
        self.progress_digest.observe(snap["progress"]["run_rate"])
        if self._writer is not None:
            self._writer.append(snap)
        bus = self._kernel.bus
        if bus is not None:
            bus.emit(ev.FLEET_SAMPLE, t_s=snap["t_s"], snapshot=snap)

    # -- reporting -----------------------------------------------------

    def summary(self) -> Dict:
        """Bounded-size summary for the ledger / manifest / report.

        Safe to call even when the fleet never executed (all cache
        hits): everything reads as zero/empty.
        """
        out: Dict = {
            "snapshots": self.snapshots,
            "every_s": self.every_s,
            "out": self.out,
            "storm_samples": self.storm_samples,
            "energy_j": self.energy_hist.summary(),
            "outage_fraction": self.outage_digest.summary(),
            "run_rate": self.progress_digest.summary(),
        }
        if self.last is not None:
            out["final"] = {
                "t_s": self.last["t_s"],
                "forward_progress":
                    self.last["progress"]["forward_progress"],
                "run_s_total": self.last["progress"]["run_s_total"],
                "backups": self.last["counters"]["backups"],
                "restores": self.last["counters"]["restores"],
                "states": self.last["states"],
            }
        return out


# -- outage correlation ----------------------------------------------------


def correlation_report(
    configs: List[Dict],
    window_s: Optional[float] = None,
    threshold_w: float = DEFAULT_THRESHOLD_W,
    storm_fraction: float = DEFAULT_STORM_FRACTION,
) -> Dict:
    """Cross-device co-outage analysis from the shared trace structure.

    No simulation runs: outage timing is fully determined by the
    concatenated rectified power array and each device's offset into
    it, so the analysis is exact for any fleet the kernel would run.

    Returns a JSON-safe report: the windowed ``co_outage`` Jaccard
    matrix (symmetric, unit diagonal — see
    :func:`repro.obs.fleetstats.co_outage_matrix`), the per-window
    fleet ``outage_fraction`` timeline, and the detected ``storms``.
    The matrix is dense D×D — quadratic in fleet size, intended for
    drill-down on up-to-a-few-thousand-device fleets, not 10k-device
    telemetry (which uses the streaming fraction instead).

    Args:
        configs: resolved device configs (fleet order).
        window_s: correlation window; defaults to 1% of the longest
            device trace (≥ one tick), and may not exceed that trace
            (each device's outage mask is padded to whole windows).
        threshold_w: outage power threshold.
        storm_fraction: minimum in-outage device fraction for a window
            to count as part of a storm.
    """
    if window_s is not None and not 0 < window_s < math.inf:
        raise ValueError("window_s must be positive and finite")
    if not 0 <= threshold_w < math.inf:
        raise ValueError("threshold_w must be finite and non-negative")
    if not 0 <= storm_fraction <= 1:
        raise ValueError("storm_fraction must be in [0, 1]")
    segments = build_power_segments(configs)
    dt = segments.dt_s
    longest_ticks = int(segments.n_ticks.max())
    longest_s = float(longest_ticks) * dt
    if window_s is None:
        window_s = max(longest_s / 100.0, dt)
    elif window_s / dt > longest_ticks + 0.5:
        # Longer than the longest trace once rounded to whole ticks.
        raise ValueError(
            f"window_s must not exceed the longest device trace "
            f"({longest_s:g} s), got {window_s:g}"
        )
    window_ticks = max(1, int(round(window_s / dt)))
    mask = segments.P < threshold_w
    windows = windowed_outages(
        mask, segments.bases, segments.n_ticks, window_ticks
    )
    matrix = co_outage_matrix(windows)
    fractions = (
        windows.mean(axis=0) if windows.size else np.zeros(0)
    )
    storms = find_storms(
        fractions, window_ticks * dt, threshold=storm_fraction
    )
    n = matrix.shape[0]
    off_diag = matrix[~np.eye(n, dtype=bool)] if n > 1 else np.zeros(0)
    return {
        "schema": SNAPSHOT_SCHEMA,
        "n_devices": n,
        "dt_s": dt,
        "window_s": window_ticks * dt,
        "window_ticks": window_ticks,
        "n_windows": int(windows.shape[1]),
        "threshold_w": float(threshold_w),
        "storm_fraction": float(storm_fraction),
        "outage_windows_per_device": windows.sum(axis=1).tolist(),
        "outage_fraction": [float(f) for f in fractions],
        "co_outage": [[float(v) for v in row] for row in matrix],
        "mean_co_outage": (
            float(off_diag.mean()) if off_diag.size else 1.0
        ),
        "storms": storms,
        "storm_seconds": float(
            sum(storm["duration_s"] for storm in storms)
        ),
    }


def render_correlation(report: Dict, width: int = 60) -> str:
    """Human-readable correlation report (the CLI's default output)."""
    lines = [
        f"fleet.correlate: {report['n_devices']} device(s), "
        f"{report['n_windows']} window(s) x {report['window_s']:.4g}s, "
        f"threshold {report['threshold_w']:.3g} W",
        f"mean pairwise co-outage: {report['mean_co_outage']:.3f}",
    ]
    fractions = report["outage_fraction"]
    if fractions:
        peak = max(fractions)
        lines.append(
            f"fleet outage fraction: mean {sum(fractions) / len(fractions):.3f}"
            f", peak {peak:.3f}"
        )
        # Sparkline-ish storm timeline in pure ASCII.
        marks = "".join(
            "#" if f >= report["storm_fraction"]
            else ("+" if f > 0 else ".")
            for f in _decimate(fractions, width)
        )
        lines.append(f"timeline [{marks}]")
    storms = report["storms"]
    if storms:
        lines.append(
            f"storms: {len(storms)} covering "
            f"{report['storm_seconds']:.4g}s"
        )
        for storm in storms[:10]:
            lines.append(
                f"  {storm['start_s']:.4g}s..{storm['end_s']:.4g}s "
                f"peak {storm['peak_fraction']:.2f}"
            )
        if len(storms) > 10:
            lines.append(f"  ... {len(storms) - 10} more")
    else:
        lines.append("storms: none")
    return "\n".join(lines)


def _decimate(values: List[float], width: int) -> List[float]:
    """At most ``width`` bucket-max values (peaks survive decimation)."""
    if len(values) <= width:
        return list(values)
    out: List[float] = []
    step = len(values) / width
    for b in range(width):
        lo = int(math.floor(b * step))
        hi = max(int(math.floor((b + 1) * step)), lo + 1)
        out.append(max(values[lo:hi]))
    return out
