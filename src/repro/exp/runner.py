"""Parallel, cache-aware sweep execution.

:class:`SweepRunner` takes the resolved run configs an
:class:`~repro.exp.spec.ExperimentSpec` expands to and executes them
with a ``ProcessPoolExecutor`` (``jobs`` workers), short-circuiting
every config whose hash is already in the
:class:`~repro.exp.cache.ResultCache`.  Each run is isolated: a config
that raises (or exceeds the per-run timeout) is recorded as a failed
:class:`RunRecord` and the sweep continues.  Results come back in
sweep order regardless of completion order.

The module-level :func:`execute_run` is the worker entry point — it
materialises trace, workload and platform from a plain config dict,
runs the simulator, and returns the result as a dict, so the only
thing crossing the process boundary is JSON-able data.
"""

from __future__ import annotations

import math
import time
import traceback
from concurrent.futures import ProcessPoolExecutor, TimeoutError as FutureTimeout
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro import native
from repro.exp.cache import ResultCache
from repro.exp.spec import build_nvp_config, config_hash, resolve_config
from repro.obs import events as ev
from repro.obs.events import EventBus
from repro.system.result import SimulationResult

#: Record statuses.
STATUS_OK = "ok"
STATUS_CACHED = "cached"
STATUS_FAILED = "failed"
STATUS_INTERRUPTED = "interrupted"


class SweepInterrupted(KeyboardInterrupt):
    """Ctrl-C landed mid-sweep; carries the partial outcome.

    Subclasses :class:`KeyboardInterrupt` so callers that only handle
    the stock interrupt keep working; callers that want the partial
    bookkeeping (the CLI's ledger record, exit code 130) catch this
    and read :attr:`outcome`.
    """

    def __init__(self, outcome: "SweepOutcome") -> None:
        super().__init__("sweep interrupted")
        self.outcome = outcome


# -- config materialisation (worker side) ---------------------------------


def build_trace(config: Dict):
    """Synthesise the power trace a resolved config describes."""
    from repro.harvest.sources import (
        SOURCE_GENERATORS,
        constant_trace,
        hybrid_trace,
        standard_profile,
    )

    source = config["source"]
    duration = config["duration_s"]
    seed = config["seed"]
    if source == "profile":
        index = config["profile_index"]
        count = config["profile_count"]
        if not 0 <= index < count:
            raise ValueError(f"profile_index {index} outside 0..{count - 1}")
        return standard_profile(index, duration, seed=seed)
    if source == "constant":
        mean_uw = config["mean_uw"] if config["mean_uw"] is not None else 20.0
        return constant_trace(mean_uw * 1e-6, duration)
    if source == "hybrid":
        trace = hybrid_trace(duration, seed=seed)
    else:
        trace = SOURCE_GENERATORS[source](duration, seed=seed)
    if config["mean_uw"] is not None:
        trace = trace.scaled_to_mean(config["mean_uw"] * 1e-6)
    return trace


def build_workload(config: Dict):
    """The workload a resolved config describes."""
    from repro.workloads.base import AbstractWorkload
    from repro.workloads.suite import build_kernel, make_functional_workload

    if config["kernel"]:
        build = build_kernel(config["kernel"])
        return make_functional_workload(build, frames=config["frames"])
    return AbstractWorkload()


def build_platform(config: Dict, workload):
    """The platform preset a resolved config describes."""
    from repro.system.presets import (
        CHECKPOINT_CAPACITANCE_F,
        NVP_CAPACITANCE_F,
        SUPERCAP_CAPACITANCE_F,
        build_checkpoint,
        build_nvp,
        build_oracle,
        build_wait_compute,
    )

    name = config["platform"]
    capacitance = config["capacitance_f"]
    if name == "nvp":
        return build_nvp(
            workload,
            build_nvp_config(config["nvp"]) if config["nvp"] else None,
            capacitance_f=(
                capacitance if capacitance is not None else NVP_CAPACITANCE_F
            ),
            seed=config["platform_seed"],
        )
    if name == "wait":
        margin = config["energy_margin"]
        return build_wait_compute(
            workload,
            capacitance_f=(
                capacitance
                if capacitance is not None
                else SUPERCAP_CAPACITANCE_F
            ),
            **({"energy_margin": margin} if margin is not None else {}),
        )
    if name == "checkpoint":
        return build_checkpoint(
            workload,
            capacitance_f=(
                capacitance
                if capacitance is not None
                else CHECKPOINT_CAPACITANCE_F
            ),
        )
    return build_oracle(workload)


def build_simulator(config: Dict, trace=None, **sim_kwargs):
    """The simulator a resolved config describes, ready to ``run()``.

    ``trace`` replaces :func:`build_trace` (a fleet device passes its
    offset tail); ``sim_kwargs`` go to ``SystemSimulator``.
    """
    from repro.system.presets import standard_rectifier
    from repro.system.simulator import SystemSimulator

    if trace is None:
        trace = build_trace(config)
    platform = build_platform(config, build_workload(config))
    return SystemSimulator(
        trace,
        platform,
        rectifier=standard_rectifier() if config["rectifier"] else None,
        stop_when_finished=config["stop_when_finished"],
        **sim_kwargs,
    )


def execute_run(config: Dict) -> Dict:
    """Worker entry point: run one resolved config to completion.

    Returns ``{"result": <SimulationResult dict>, "wall_s": float,
    "resources": {...}, "spans": [...], "pid": int, "backend": str}``.
    The spans are plain dicts with absolute Unix timestamps — the only
    tracer form that can cross the process boundary — which the runner
    merges into its :class:`~repro.obs.spans.SpanTracer` under a
    ``worker-<pid>`` thread.  ``resources`` is the run's ``getrusage`` delta (CPU
    seconds) plus the worker's lifetime peak RSS (see
    :mod:`repro.obs.resources`), shipped through the same
    result-collection path, as is ``backend``, the kernels' backend
    (:func:`repro.native.backend`).  Exceptions propagate to the
    caller (the runner records them).
    """
    import os

    from repro.obs.resources import sample_resources, usage_between

    label = config.get("label") or "?"
    usage_before = sample_resources()
    started = time.perf_counter()
    build_began = time.time()
    simulator = build_simulator(config)
    sim_began = time.time()
    result = simulator.run()
    sim_ended = time.time()
    return {
        "result": result.to_dict(),
        "wall_s": time.perf_counter() - started,
        "resources": usage_between(usage_before, sample_resources()),
        "pid": os.getpid(),
        "backend": native.backend(),
        "spans": [
            {
                "name": "build",
                "start_s": build_began,
                "end_s": sim_began,
                "args": {"label": label},
            },
            {
                "name": "simulate",
                "start_s": sim_began,
                "end_s": sim_ended,
                "args": {"label": label, "ticks": len(simulator.trace)},
            },
        ],
    }


# -- records --------------------------------------------------------------


@dataclass
class RunRecord:
    """Outcome of one sweep point.

    Attributes:
        index: position in sweep order.
        config: the fully-resolved run config.
        key: content hash of ``config`` (the cache key).
        status: ``"ok"``, ``"cached"``, ``"failed"`` or
            ``"interrupted"``.
        result: the simulation result dict (``None`` when failed).
        error: failure description (``None`` unless failed).
        wall_s: wall-clock seconds the simulation took (the *original*
            run's time for cache hits).
        cpu_s: CPU seconds this invocation spent on the run (0 for
            cache hits — recalling a result costs no simulation CPU).
        peak_rss_kb: executing worker's lifetime peak RSS at run
            completion, KB (0 for cache hits).
        pid: executing worker process id (``None`` for cache hits and
            failures that never reached a worker).
        backend: the kernels' backend the run used (``"native"`` or
            ``"python"``; ``None`` for cache hits and failures).
    """

    index: int
    config: Dict
    key: str
    status: str = STATUS_FAILED
    result: Optional[Dict] = None
    error: Optional[str] = None
    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_kb: float = 0.0
    pid: Optional[int] = None
    backend: Optional[str] = None

    @property
    def ok(self) -> bool:
        """True unless the run failed."""
        return self.status in (STATUS_OK, STATUS_CACHED)

    @property
    def label(self) -> str:
        """Display label: the config label or a short hash."""
        return self.config.get("label") or self.key[:12]

    def simulation_result(self) -> Optional[SimulationResult]:
        """The result re-hydrated as a :class:`SimulationResult`."""
        if self.result is None:
            return None
        return SimulationResult.from_dict(self.result)


@dataclass
class SweepOutcome:
    """Ordered records plus sweep-level accounting."""

    records: List[RunRecord] = field(default_factory=list)
    executed: int = 0
    cached: int = 0
    failed: int = 0
    interrupted: int = 0
    wall_s: float = 0.0

    def __iter__(self):
        return iter(self.records)

    def __len__(self) -> int:
        return len(self.records)

    def simulation_results(self) -> List[Optional[SimulationResult]]:
        """Re-hydrated results in sweep order (``None`` for failures)."""
        return [record.simulation_result() for record in self.records]

    def raise_on_failure(self) -> "SweepOutcome":
        """Raise ``RuntimeError`` if any point failed; returns self."""
        failures = [r for r in self.records if not r.ok]
        if failures:
            lines = "; ".join(
                f"{r.label}: {r.error}" for r in failures[:5]
            )
            raise RuntimeError(
                f"{len(failures)} of {len(self.records)} sweep points "
                f"failed ({lines})"
            )
        return self

    @property
    def backend(self) -> Optional[str]:
        """The kernels' backend the executed points ran on.

        Comma-joined if they differ; for points that ran in this
        process without a payload (a fleet), the backend loaded here;
        ``None`` when no kernel ran (an all-cached sweep).
        """
        names = sorted({r.backend for r in self.records if r.backend})
        return ",".join(names) if names else native.backend()

    def resource_usage(self) -> Dict:
        """Aggregated worker resource usage (see
        :func:`repro.obs.resources.aggregate_usage`)."""
        from repro.obs.resources import aggregate_usage

        return aggregate_usage(
            {
                "cpu_s": record.cpu_s,
                "peak_rss_kb": record.peak_rss_kb,
                "pid": record.pid,
            }
            for record in self.records
            if record.pid is not None
        )

    def summary(self) -> str:
        """One-line accounting string."""
        note = (
            f", {self.interrupted} interrupted" if self.interrupted else ""
        )
        return (
            f"{len(self.records)} point(s): {self.executed} executed, "
            f"{self.cached} cached, {self.failed} failed{note} "
            f"in {self.wall_s:.2f}s"
        )


def preflight(
    records: Sequence[RunRecord], cache: Optional[ResultCache]
) -> List[RunRecord]:
    """Recall every cached record in place; returns the ones left to run.

    A hit takes the stored result and the original run's wall time.
    """
    pending: List[RunRecord] = []
    for record in records:
        # ``is not None``: an empty cache is falsy (``__len__``).
        entry = cache.get(record.key) if cache is not None else None
        if entry is not None and "result" in entry:
            record.status = STATUS_CACHED
            record.result = entry["result"]
            record.wall_s = float(entry.get("wall_s") or 0.0)
        else:
            pending.append(record)
    return pending


# -- the runner -----------------------------------------------------------


class SweepRunner:
    """Executes resolved run configs in parallel with caching.

    Args:
        jobs: worker processes; ``1`` runs in-process (no pool), which
            is also the fallback when only one config needs executing.
        cache: result cache; ``None`` disables caching entirely.
        timeout_s: per-run wall-clock budget.  A run that exceeds it
            is recorded as failed and not cached; already-queued runs
            keep going.  In process (``jobs=1``, or one point left to
            run) the run finishes first and fails if it took longer.
        bus: optional event bus for live progress
            (:data:`~repro.obs.events.SWEEP_BEGIN` /
            :data:`~repro.obs.events.SWEEP_POINT` /
            :data:`~repro.obs.events.SWEEP_END`).
        tracer: optional :class:`~repro.obs.spans.SpanTracer`; when
            set, the sweep records a span hierarchy (sweep → per-run →
            cache-lookup/simulate) with worker spans merged from the
            run payloads, exportable as a Chrome trace
            (``repro sweep --trace``).
        metrics: optional :class:`~repro.obs.metrics.MetricsRegistry`;
            when set, the sweep publishes post-run labeled aggregates
            (``cache_hit_total`` by outcome, ``worker_cpu_s`` /
            ``worker_peak_rss_kb`` by worker pid) — nothing per-point,
            so the zero-overhead-when-disabled discipline holds.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: Optional[ResultCache] = None,
        timeout_s: Optional[float] = None,
        bus: Optional[EventBus] = None,
        tracer=None,
        metrics=None,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if timeout_s is not None and not 0 < timeout_s < math.inf:
            raise ValueError("timeout must be positive and finite")
        self.jobs = jobs
        self.cache = cache
        self.timeout_s = timeout_s
        self.bus = bus
        self.tracer = tracer
        self.metrics = metrics
        if tracer is not None and cache is not None and cache.tracer is None:
            # One tracer serves the whole sweep: cache lookups get
            # their own spans with hit attribution.
            cache.tracer = tracer

    # Each helper returns the completed record so run() stays linear.

    def _emit(self, name: str, **data) -> None:
        if self.bus is not None:
            self.bus.emit(name, time.time(), **data)

    def _finish(self, record: RunRecord, payload: Dict) -> RunRecord:
        record.status = STATUS_OK
        record.result = payload["result"]
        record.wall_s = payload["wall_s"]
        resources = payload.get("resources") or {}
        record.cpu_s = float(resources.get("cpu_s", 0.0) or 0.0)
        record.peak_rss_kb = float(resources.get("peak_rss_kb", 0.0) or 0.0)
        record.pid = payload.get("pid")
        record.backend = payload.get("backend")
        if self.tracer is not None and payload.get("spans"):
            self.tracer.import_worker(payload["spans"], payload.get("pid", 0))
        if self.cache is not None:
            self.cache.put(
                record.key,
                {
                    "config": record.config,
                    "result": record.result,
                    "wall_s": record.wall_s,
                    "resources": resources,
                },
            )
        return record

    def _fail(self, record: RunRecord, error: str) -> RunRecord:
        record.status = STATUS_FAILED
        record.error = error
        return record

    def run(self, configs: Sequence[Dict]) -> SweepOutcome:
        """Execute (or recall) every config; returns ordered records."""
        if self.tracer is not None:
            with self.tracer.span("sweep", points=len(configs)) as attrs:
                outcome = self._run(configs)
                attrs["executed"] = outcome.executed
                attrs["cached"] = outcome.cached
                attrs["failed"] = outcome.failed
            return outcome
        return self._run(configs)

    def _run(self, configs: Sequence[Dict]) -> SweepOutcome:
        started = time.perf_counter()
        records = []
        for index, config in enumerate(configs):
            resolved = resolve_config(config)
            records.append(
                RunRecord(index=index, config=resolved,
                          key=config_hash(resolved))
            )

        pending = preflight(records, self.cache)
        outcome = SweepOutcome(records=records, cached=len(records) - len(pending))

        self._emit(
            ev.SWEEP_BEGIN,
            total=len(records),
            cached=outcome.cached,
            jobs=self.jobs,
        )
        for record in records:
            if record.status == STATUS_CACHED:
                self._emit_point(record, len(records))

        interrupted = False
        try:
            if self.jobs == 1 or len(pending) <= 1:
                for record in pending:
                    self._run_serial(record)
                    self._emit_point(record, len(records))
            else:
                self._run_pool(pending, len(records))
        except KeyboardInterrupt:
            # Records the interruption never reached keep no error and
            # no result — mark them so the ledger and the CLI can tell
            # "never ran" from "ran and failed".
            interrupted = True
            for record in records:
                if (
                    record.status == STATUS_FAILED
                    and record.result is None
                    and record.error is None
                ):
                    record.status = STATUS_INTERRUPTED

        outcome.executed = sum(
            1 for r in records if r.status == STATUS_OK
        )
        outcome.failed = sum(
            1 for r in records if r.status == STATUS_FAILED
        )
        outcome.interrupted = sum(
            1 for r in records if r.status == STATUS_INTERRUPTED
        )
        outcome.wall_s = time.perf_counter() - started
        self._publish_metrics(outcome)
        self._emit(
            ev.SWEEP_END,
            total=len(records),
            executed=outcome.executed,
            cached=outcome.cached,
            failed=outcome.failed,
            interrupted=outcome.interrupted,
            wall_s=outcome.wall_s,
        )
        if interrupted:
            raise SweepInterrupted(outcome)
        return outcome

    def _publish_metrics(self, outcome: SweepOutcome) -> None:
        """Post-run labeled aggregates (no-op without a registry)."""
        if self.metrics is None:
            return
        hits = self.metrics.counter(
            "cache_hit_total",
            "sweep cache lookups by outcome",
            labels=("outcome",),
        )
        hits.labels(outcome="hit").inc(outcome.cached)
        hits.labels(outcome="miss").inc(
            len(outcome.records) - outcome.cached
        )
        cpu = self.metrics.counter(
            "worker_cpu_s", "CPU seconds per worker", labels=("pid",)
        )
        rss = self.metrics.gauge(
            "worker_peak_rss_kb", "peak RSS per worker (KB)",
            labels=("pid",),
        )
        by_pid: Dict[int, List[float]] = {}
        for record in outcome.records:
            if record.pid is None:
                continue
            entry = by_pid.setdefault(record.pid, [0.0, 0.0])
            entry[0] += record.cpu_s
            entry[1] = max(entry[1], record.peak_rss_kb)
        for pid, (cpu_s, peak) in sorted(by_pid.items()):
            cpu.labels(pid=str(pid)).inc(cpu_s)
            rss.labels(pid=str(pid)).set(peak)

    def _emit_point(self, record: RunRecord, total: int) -> None:
        data = {
            "index": record.index,
            "total": total,
            "key": record.key,
            "status": record.status,
            "label": record.label,
            "wall_s": record.wall_s,
        }
        if record.error:
            data["error"] = record.error
        if record.result is not None:
            data["forward_progress"] = record.result.get("forward_progress")
        if record.pid is not None:
            data["pid"] = record.pid
            data["cpu_s"] = record.cpu_s
            data["peak_rss_kb"] = record.peak_rss_kb
        self._emit(ev.SWEEP_POINT, **data)

    def _run_serial(self, record: RunRecord) -> RunRecord:
        if self.tracer is not None:
            with self.tracer.span(f"run:{record.label}", key=record.key) as a:
                result = self._run_serial_inner(record)
                a["status"] = record.status
            return result
        return self._run_serial_inner(record)

    def _run_serial_inner(self, record: RunRecord) -> RunRecord:
        try:
            payload = execute_run(record.config)
        except Exception:
            return self._fail(record, traceback.format_exc(limit=3).strip())
        # In process a run cannot be cut short, so one past its budget
        # fails (uncached) once it returns, as the pool would fail it.
        if self.timeout_s is not None and payload["wall_s"] > self.timeout_s:
            return self._fail(record, self._timed_out())
        return self._finish(record, payload)

    def _timed_out(self) -> str:
        return f"timed out after {self.timeout_s:g}s"

    def _run_pool(self, pending: List[RunRecord], total: int) -> None:
        workers = min(self.jobs, len(pending))
        # Load (or build) the kernels once, before the workers fork:
        # linking the module in each worker would cost it about 0.5 MB
        # of peak RSS, and two workers could build it at once.
        native.kernels()
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                (record, pool.submit(execute_run, record.config))
                for record in pending
            ]
            # Collect in submission order: ordered results for free,
            # and a timed-out straggler only blocks its own record —
            # later futures keep computing while we wait on it.
            try:
                for record, future in futures:
                    collect_began = time.time()
                    try:
                        self._finish(
                            record, future.result(timeout=self.timeout_s)
                        )
                    except FutureTimeout:
                        future.cancel()
                        self._fail(record, self._timed_out())
                    except KeyboardInterrupt:
                        raise
                    except Exception as exc:
                        self._fail(record, f"{type(exc).__name__}: {exc}")
                    if self.tracer is not None:
                        # The runner-side view: how long this record
                        # held up the in-order collection loop.
                        self.tracer.add(
                            f"collect:{record.label}",
                            collect_began,
                            time.time(),
                            key=record.key,
                            status=record.status,
                        )
                    self._emit_point(record, total)
            except KeyboardInterrupt:
                # Drop everything not yet started; tasks already on a
                # worker run to completion (a real Ctrl-C also signals
                # the process group, so workers die with us).
                pool.shutdown(wait=False, cancel_futures=True)
                raise
