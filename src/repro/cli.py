"""Command-line interface: quick experiments without writing a script.

Examples::

    python -m repro simulate --platform nvp --source wristwatch --duration 5
    python -m repro simulate --platform nvp --kernel sobel --frames 10
    python -m repro simulate --duration 5 --trace out.json --metrics out.csv
    python -m repro observe --duration 5 --interval 1
    python -m repro compare --duration 5 --seed 3 --jobs 4
    python -m repro sweep spec.json --jobs 4 --results-dir benchmarks/results
    python -m repro sweep spec.json --jobs 4 --trace sweep-trace.json
    python -m repro sweep spec.json --jobs 4 --live
    python -m repro fleet run fleet.json --telemetry-out fleet.jsonl
    python -m repro fleet watch fleet.json
    python -m repro fleet correlate fleet.json --json
    python -m repro runs list --experiment cap-sweep
    python -m repro runs list --devices-min 100
    python -m repro runs diff a1b2c3 d4e5f6
    python -m repro bench-report --baseline baseline-history.jsonl
    python -m repro outages --source wristwatch --duration 10
    python -m repro kernels --verify
    python -m repro techs
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from typing import Dict, List, Optional

import numpy as np

from repro.analysis.report import format_table
from repro.core.config import DEFAULT_STATE_BITS
from repro.exp.runner import build_trace
from repro.exp.spec import resolve_config
from repro.harvest.outage import DEFAULT_THRESHOLD_W, analyze_outages
from repro.harvest.sources import SOURCE_GENERATORS
from repro.nvm.technology import TECHNOLOGIES
from repro.obs.history import DEFAULT_HISTORY_PATH, DEFAULT_MAX_REGRESSION
from repro.system.presets import (
    build_checkpoint,
    build_nvp,
    build_oracle,
    build_wait_compute,
    standard_rectifier,
)
from repro.system.simulator import SystemSimulator
from repro.workloads.base import AbstractWorkload
from repro.workloads.suite import KERNELS, build_kernel, make_functional_workload

PLATFORM_BUILDERS = {
    "nvp": build_nvp,
    "wait": build_wait_compute,
    "checkpoint": build_checkpoint,
    "oracle": build_oracle,
}


def _flag_config(args) -> Dict:
    """The run config keys the trace and workload flags set."""
    return {
        "source": args.source,
        "duration_s": args.duration,
        "seed": args.seed,
        "mean_uw": args.mean_uw,
        "kernel": getattr(args, "kernel", None),
        "frames": getattr(args, "frames", 5),
    }


def _make_trace(args):
    """The trace the flags describe, built like a sweep point's.

    Every command that takes trace flags calls this before building
    anything else.  The trace and workload flags are resolved through
    ``resolve_config`` first, so a malformed one exits 2 with one
    ``error:`` line naming its config key.
    """
    try:
        config = resolve_config(_flag_config(args))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2)
    return build_trace(config)


def _make_workload(args):
    if args.kernel:
        build = build_kernel(args.kernel)
        return make_functional_workload(build, frames=args.frames), build
    return AbstractWorkload(), None


def _make_observability(args):
    """Build (bus, log, metrics) from the exporter flags (or Nones).

    The recorder subscribes to every event *except* the per-tick
    ``sim.tick`` sample, so an instrumented ``repro simulate`` keeps
    the fast-forward engine (the stream is synthesized from run
    lengths, bit-identical to exact ticking — see
    ``docs/observability.md``).  ``repro observe`` subscribes to
    everything, including ticks, and takes the exact path.
    """
    from repro.obs import EventBus, MetricsRegistry
    from repro.obs import events as ev

    wants_events = bool(
        getattr(args, "trace", None) or getattr(args, "events", None)
    )
    wants_metrics = bool(getattr(args, "metrics", None))
    if not wants_events and not wants_metrics and not getattr(
        args, "manifest", None
    ):
        return None, None, None
    bus = EventBus() if wants_events else None
    log = bus.record(names=ev.NON_TICK_EVENT_NAMES) if bus is not None else None
    metrics = MetricsRegistry() if wants_metrics else None
    return bus, log, metrics


def _write_observability(args, log, metrics, manifest) -> None:
    """Write whichever artifacts the exporter flags requested.

    Raises SystemExit(1) with a clean message on unwritable paths so a
    bad ``--trace``/``--metrics`` destination does not traceback.
    """
    from repro.obs import write_chrome_trace, write_events_jsonl, write_metrics_csv

    try:
        if getattr(args, "trace", None):
            count = write_chrome_trace(log, args.trace)
            print(f"trace   : {args.trace} ({count} trace events)")
        if getattr(args, "events", None):
            count = write_events_jsonl(log, args.events)
            print(f"events  : {args.events} ({count} lines)")
        if getattr(args, "metrics", None):
            count = write_metrics_csv(metrics, args.metrics)
            print(f"metrics : {args.metrics} ({count} series rows)")
        if getattr(args, "manifest", None):
            manifest.finish().write(args.manifest)
            print(f"manifest: {args.manifest}")
    except OSError as exc:
        raise SystemExit(f"error: cannot write artifact: {exc}")


def _profiled_run(simulator, profile_out: Optional[str]):
    """Run one simulation under cProfile (the ``--profile`` flags).

    Prints the engine tick split, the kernels' backend and the top-20
    cumulative-time entries to stderr (so ``--json`` stdout stays
    clean) and optionally dumps the full stats to ``profile_out`` for
    pstats/snakeviz.
    """
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    result = profiler.runcall(simulator.run)
    stats = pstats.Stats(profiler, stream=sys.stderr)
    stats.sort_stats("cumulative")
    print(
        f"profile : top 20 by cumulative time "
        f"(fast-forwarded {simulator.ticks_fast_forwarded} ticks, "
        f"batched {simulator.ticks_batched}, "
        f"exact {simulator.ticks_exact})",
        file=sys.stderr,
    )
    print(f"backend : {_backend_line()}", file=sys.stderr)
    engine = getattr(
        getattr(simulator.platform, "workload", None), "_block_engine", None
    )
    if engine is not None:
        counts = engine.profile_counts()
        print(
            f"blocks  : {counts['blocks']} compiled, "
            f"{counts['fused']} fused block runs, "
            f"{counts['stepped']} stepped (partial-budget) runs",
            file=sys.stderr,
        )
    stats.print_stats(20)
    if profile_out:
        try:
            stats.dump_stats(profile_out)
        except OSError as exc:
            raise SystemExit(f"error: cannot write profile: {exc}")
        print(f"pstats  : {profile_out}", file=sys.stderr)
    return result


def _backend_line() -> str:
    """The kernels' backend this process ran on, and why if it fell back."""
    from repro import native

    name = native.backend()
    if name is None:
        return "none (no sequential kernel ran)"
    reason = native.reason()
    return f"{name} ({reason})" if reason else name


def _ledger_append(record) -> Optional[str]:
    """Append to the configured ledger; returns the record id.

    Returns ``None`` when recording is disabled (``REPRO_LEDGER_DIR=""``)
    or the ledger file cannot be written — invocation bookkeeping never
    fails the command it is bookkeeping for.
    """
    from repro.obs.ledger import RunLedger

    ledger = RunLedger.from_env()
    if ledger is None:
        return None
    try:
        ledger.append(record)
    except OSError as exc:
        print(f"note: ledger not written: {exc}", file=sys.stderr)
        return None
    return record["id"]


def _open_cache(args):
    """The cache ``_add_cache_arguments`` selects (``None``: no cache)."""
    from repro.exp import ResultCache

    if args.no_cache:
        return None
    cache = ResultCache(args.cache_dir)
    if args.fresh:
        removed = cache.clear()
        print(f"cache   : cleared {removed} entr(y/ies) "
              f"from {cache.directory}")
    return cache


def cmd_simulate(args) -> int:
    if not args.no_block_engine:
        return _simulate(args)
    from repro.isa import blockengine

    # The switch is process-wide and mirrored into os.environ for
    # child processes: put it back however the run ends.
    enabled = blockengine.enabled()
    blockengine.set_enabled(False)
    try:
        return _simulate(args)
    finally:
        blockengine.set_enabled(enabled)


def _simulate(args) -> int:
    from repro import native
    from repro.exp.spec import config_hash
    from repro.obs import RunManifest
    from repro.obs.ledger import OUTCOME_INTERRUPTED, OUTCOME_OK, make_record
    from repro.obs.resources import sample_resources, usage_between

    config = {
        "platform": args.platform,
        "source": args.source,
        "duration_s": args.duration,
        "kernel": args.kernel,
    }
    manifest = RunManifest.collect(
        command="simulate", seed=args.seed, config=config
    )
    if args.sample_stride < 0:
        print("error: --sample-stride must be >= 0", file=sys.stderr)
        return 2
    trace = _make_trace(args)
    started = time.time()
    usage_before = sample_resources()
    fingerprint = config_hash({**config, "seed": args.seed})[:16]

    def _ledger(outcome_name: str = OUTCOME_OK) -> Optional[str]:
        return _ledger_append(make_record(
            "simulate",
            outcome_name,
            started,
            time.time(),
            experiment=args.kernel,
            spec_hash=fingerprint,
            resources=usage_between(usage_before, sample_resources()),
            n_devices=1,
            backend=native.backend(),
        ))

    workload, build = _make_workload(args)
    platform = PLATFORM_BUILDERS[args.platform](workload)
    bus, log, metrics = _make_observability(args)
    simulator = SystemSimulator(
        trace,
        platform,
        rectifier=standard_rectifier(),
        stop_when_finished=args.kernel is not None,
        bus=bus,
        metrics=metrics,
        sample_stride=args.sample_stride,
        use_fast_forward=False if args.no_fast_forward else None,
        use_exact_batch=False if args.no_exact_batch else None,
    )
    try:
        if args.profile or args.profile_out:
            result = _profiled_run(simulator, args.profile_out)
        else:
            result = simulator.run()
    except KeyboardInterrupt:
        _ledger(OUTCOME_INTERRUPTED)
        raise
    if args.json:
        import json

        if log is not None or metrics is not None or args.manifest:
            # Write requested artifacts without polluting the JSON.
            import contextlib
            import io

            with contextlib.redirect_stdout(io.StringIO()):
                _write_observability(args, log, metrics, manifest)
        _ledger()
        print(json.dumps(result.to_dict(), indent=2))
        return 0
    print(f"trace   : {trace}")
    print(f"result  : {result.summary()}")
    _write_observability(args, log, metrics, manifest)
    ledger_id = _ledger()
    if ledger_id:
        print(f"ledger  : {ledger_id}")
    if build is not None:
        outputs = np.array(workload.outputs, dtype=np.uint16)
        per_frame = len(build.expected_output)
        complete = len(outputs) // max(1, per_frame)
        if complete:
            reference = np.tile(build.expected_output, complete)
            exact = np.array_equal(outputs[: len(reference)], reference)
            print(f"outputs : {complete} complete frame(s), "
                  f"{'bit-exact' if exact else 'MISMATCH'}")
        else:
            print("outputs : no complete frame")
    return 0


def cmd_observe(args) -> int:
    """Run one simulation fully instrumented and render a live summary."""
    from repro.obs import EventBus, LiveSummary, MetricsRegistry, RunManifest

    manifest = RunManifest.collect(
        command="observe",
        seed=args.seed,
        config={
            "platform": args.platform,
            "source": args.source,
            "duration_s": args.duration,
            "kernel": args.kernel,
        },
    )
    # Written so NaN fails too: every comparison with NaN is False.
    if args.interval is not None and not 0 < args.interval < math.inf:
        print("error: --interval must be positive and finite",
              file=sys.stderr)
        return 2
    trace = _make_trace(args)
    workload, _build = _make_workload(args)
    platform = PLATFORM_BUILDERS[args.platform](workload)
    bus = EventBus()
    summary = LiveSummary(interval_s=args.interval).attach(bus)
    log = bus.record() if (args.trace or args.events) else None
    metrics = MetricsRegistry()
    result = SystemSimulator(
        trace,
        platform,
        rectifier=standard_rectifier(),
        stop_when_finished=args.kernel is not None,
        bus=bus,
        metrics=metrics,
    ).run()
    print(f"trace   : {trace}")
    print(f"result  : {result.summary()}")
    print()
    print(summary.render())
    _write_observability(args, log, metrics, manifest)
    return 0


def cmd_compare(args) -> int:
    from repro.exp import SweepInterrupted, SweepRunner
    from repro.obs.ledger import OUTCOME_INTERRUPTED, sweep_record

    trace = _make_trace(args)
    configs = [
        {**_flag_config(args), "platform": name, "label": name}
        for name in PLATFORM_BUILDERS
    ]
    try:
        runner = SweepRunner(jobs=args.jobs)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    started = time.time()
    try:
        outcome = runner.run(configs)
    except SweepInterrupted as exc:
        _ledger_append(sweep_record(
            "compare", "platforms", exc.outcome, started, time.time(),
            forced_outcome=OUTCOME_INTERRUPTED, cache_attached=False,
        ))
        print("compare interrupted", file=sys.stderr)
        return 130
    _ledger_append(sweep_record(
        "compare", "platforms", outcome, started, time.time(),
        cache_attached=False,
    ))
    rows = []
    baseline = None
    for record in outcome:
        if not record.ok:
            print(f"error: {record.label}: {record.error}", file=sys.stderr)
            return 1
        result = record.simulation_result()
        if record.label == "nvp":
            baseline = result.forward_progress
        rows.append(
            [
                record.label,
                result.forward_progress,
                result.backups,
                result.rollbacks,
                f"{result.on_time_fraction:.1%}",
            ]
        )
    print(f"trace: {trace}\n")
    print(format_table(["platform", "FP", "backups", "rollbacks", "on-time"], rows))
    if baseline:
        for row in rows:
            if row[0] == "wait" and row[1]:
                print(f"\nnvp / wait-compute = {baseline / row[1]:.2f}x")
    return 0


def cmd_sweep(args) -> int:
    """Run a declarative experiment spec through the sweep engine."""
    from repro.exp import (
        ExperimentSpec,
        SweepInterrupted,
        SweepRunner,
        render_outcome,
        write_results,
    )
    from repro.obs import EventBus
    from repro.obs import events as ev
    from repro.obs.ledger import OUTCOME_INTERRUPTED, sweep_record

    try:
        spec = ExperimentSpec.from_file(args.spec)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"error: cannot load spec: {exc}")

    cache = _open_cache(args)

    bus = EventBus()
    monitor = None
    if args.live:
        from repro.obs import SweepMonitor

        # In-place redraw on a TTY; one plain progress line per point
        # when stdout is piped (CI logs stay readable).
        monitor = SweepMonitor().attach(bus)
    if not args.quiet and monitor is None:
        def _progress(event) -> None:
            data = event.data
            if event.name == ev.SWEEP_BEGIN:
                print(f"sweep   : {spec.name} — {data['total']} point(s), "
                      f"{data['cached']} cached, jobs={data['jobs']}")
                return
            status = data["status"]
            line = (f"[{data['index'] + 1:>3}/{data['total']}] "
                    f"{status:<6} {data['label']}")
            if status == "failed":
                line += f" — {data.get('error', '?').splitlines()[-1]}"
            else:
                line += (f" FP={data.get('forward_progress')} "
                         f"({data['wall_s']:.2f}s)")
            print(line)

        bus.subscribe(_progress, names=(ev.SWEEP_BEGIN, ev.SWEEP_POINT))

    tracer = None
    if args.trace:
        from repro.obs import SpanTracer

        tracer = SpanTracer()

    try:
        configs = spec.expand()
    except ValueError as exc:
        raise SystemExit(f"error: bad spec: {exc}")
    try:
        runner = SweepRunner(
            jobs=args.jobs, cache=cache, timeout_s=args.timeout, bus=bus,
            tracer=tracer,
        )
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    started = time.time()
    interrupted = False
    try:
        outcome = runner.run(configs)
    except SweepInterrupted as exc:
        outcome = exc.outcome
        interrupted = True
    record = sweep_record(
        "sweep", spec.name, outcome, started, time.time(),
        forced_outcome=OUTCOME_INTERRUPTED if interrupted else None,
    )
    ledger_id = _ledger_append(record)
    print()
    print(render_outcome(outcome))
    if ledger_id:
        print(f"ledger  : {ledger_id} ({record['outcome']})")
    if interrupted:
        print("sweep interrupted — partial accounting above",
              file=sys.stderr)
        return 130
    if args.results_dir:
        try:
            if tracer is not None:
                with tracer.span("fold", points=len(outcome.records)):
                    path = write_results(spec, outcome, args.results_dir)
            else:
                path = write_results(spec, outcome, args.results_dir)
        except OSError as exc:
            raise SystemExit(f"error: cannot write results: {exc}")
        print(f"results : {path}")
    if tracer is not None:
        try:
            count = tracer.write_chrome(
                args.trace, process_name=f"repro sweep {spec.name}"
            )
        except OSError as exc:
            raise SystemExit(f"error: cannot write trace: {exc}")
        print(f"trace   : {args.trace} ({count} trace events)")
    return 1 if outcome.failed else 0


def cmd_fleet_run(args) -> int:
    """Run a fleet spec through the batched lockstep kernel.

    Also backs ``repro fleet watch`` (``args.watch``), which attaches
    the live :class:`~repro.obs.summary.FleetMonitor` dashboard and
    always samples telemetry.
    """
    import argparse
    import json

    from repro.fleet import (
        FleetSpec,
        FleetTelemetry,
        fleet_summary,
        render_fleet_summary,
        replay_device,
        run_fleet,
        write_fleet_results,
    )
    from repro.obs import EventBus
    from repro.obs import events as ev
    from repro.obs.ledger import OUTCOME_INTERRUPTED, sweep_record

    watch = bool(getattr(args, "watch", False))
    command = "fleet-watch" if watch else "fleet"
    try:
        spec = FleetSpec.from_file(args.spec)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"error: cannot load fleet spec: {exc}")
    try:
        configs = spec.devices()
    except ValueError as exc:
        raise SystemExit(f"error: bad fleet spec: {exc}")

    # Telemetry is on when asked for (flags or spec cadence) and
    # always under `watch` — the dashboard feeds on fleet.sample.
    every_s = args.telemetry_every
    if every_s is None:
        every_s = spec.telemetry_every_s
    telemetry = None
    if watch or args.telemetry_out is not None or every_s is not None:
        try:
            telemetry = FleetTelemetry(
                every_s=every_s, out=args.telemetry_out
            )
        except ValueError as exc:
            raise SystemExit(f"error: {exc}")

    cache = _open_cache(args)

    bus = EventBus()
    if watch:
        from repro.obs.summary import FleetMonitor

        FleetMonitor().attach(bus)
    elif not args.quiet and not args.json:
        def _progress(event) -> None:
            data = event.data
            if event.name == ev.FLEET_BEGIN:
                print(f"fleet   : {spec.name} — {data['devices']} device(s) "
                      f"in lockstep (dt={data['dt_s'] * 1e3:.3g}ms)")
            else:
                print(f"fleet   : advanced {data['ticks']} tick(s)")

        bus.subscribe(_progress, names=(ev.FLEET_BEGIN, ev.FLEET_END))

    started = time.time()
    try:
        outcome = run_fleet(configs, cache=cache, bus=bus,
                            telemetry=telemetry)
    except KeyboardInterrupt:
        from repro.exp.runner import SweepOutcome

        _ledger_append(sweep_record(
            command, spec.name, SweepOutcome(), started, time.time(),
            forced_outcome=OUTCOME_INTERRUPTED, n_devices=len(configs),
            telemetry=(
                telemetry.summary() if telemetry is not None else None
            ),
        ))
        raise
    telemetry_summary = (
        telemetry.summary() if telemetry is not None else None
    )
    record = sweep_record(
        command, spec.name, outcome, started, time.time(),
        n_devices=len(configs), telemetry=telemetry_summary,
    )
    ledger_id = _ledger_append(record)
    summary = fleet_summary(outcome)
    if telemetry_summary is not None:
        summary["telemetry"] = telemetry_summary
    if args.json:
        print(json.dumps(summary, indent=2))
    else:
        print()
        print(render_fleet_summary(summary, title=f"fleet {spec.name}"))
        print(f"cache   : {outcome.cached} hit(s), "
              f"{outcome.executed} executed ({outcome.wall_s:.2f}s)")
        if telemetry is not None:
            if telemetry.snapshots:
                line = (f"telemetry: {telemetry.snapshots} snapshot(s) "
                        f"every {telemetry.every_s:.4g}s")
                if telemetry.out:
                    line += f" -> {telemetry.out}"
            else:
                # Telemetry samples the lockstep kernel; a fully
                # cached fleet never runs it.
                line = "telemetry: 0 snapshot(s) (all devices cached)"
            print(line)
        if ledger_id:
            print(f"ledger  : {ledger_id} ({record['outcome']})")
    if args.results_dir:
        try:
            path = write_fleet_results(
                spec, outcome, args.results_dir, command=command,
                telemetry=telemetry_summary,
            )
        except OSError as exc:
            raise SystemExit(f"error: cannot write results: {exc}")
        if not args.json:
            print(f"results : {path}")
    if args.replay_device is not None:
        index = args.replay_device
        if not 0 <= index < len(configs):
            raise SystemExit(
                f"error: --replay-device {index} out of range "
                f"(fleet has {len(configs)} devices)"
            )
        # Drill down: re-run one device through the single-device
        # engine with full observability.  Exact by construction —
        # fleet results are bit-identical to the single engine.
        from repro.obs import RunManifest

        replay_args = argparse.Namespace(
            trace=None, events=args.events, metrics=args.metrics,
            manifest=args.manifest,
        )
        rbus, rlog, rmetrics = _make_observability(replay_args)
        result, _ = replay_device(
            configs[index], bus=rbus, metrics=rmetrics
        )
        identical = result.to_dict() == outcome.records[index].result
        if not args.json:
            print(f"replay  : device {index} — {result.summary()}")
            print(f"replay  : fleet result "
                  f"{'bit-identical' if identical else 'MISMATCH'}")
        manifest = None
        if args.manifest:
            manifest = RunManifest.collect(
                command=f"fleet-replay:{spec.name}",
                config=dict(configs[index]),
                n_devices=len(configs),
                device_index=index,
            )
        _write_observability(replay_args, rlog, rmetrics, manifest)
        if not identical:
            return 1
    return 1 if outcome.failed else 0


def cmd_fleet_correlate(args) -> int:
    """Outage-correlation analysis of a fleet spec (no simulation)."""
    import json

    from repro.fleet import FleetSpec, correlation_report, render_correlation

    try:
        spec = FleetSpec.from_file(args.spec)
        configs = spec.devices()
    except (OSError, ValueError) as exc:
        raise SystemExit(f"error: cannot load fleet spec: {exc}")
    try:
        report = correlation_report(
            configs,
            window_s=args.window,
            threshold_w=args.threshold,
            storm_fraction=args.storm_fraction,
        )
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    if args.out:
        try:
            with open(args.out, "w") as handle:
                json.dump(report, handle, indent=2, sort_keys=True)
                handle.write("\n")
        except OSError as exc:
            raise SystemExit(f"error: cannot write report: {exc}")
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(render_correlation(report))
        if args.out:
            print(f"report  : {args.out}")
    return 0


def cmd_bench_report(args) -> int:
    """Diff the benchmark history against a baseline and gate regressions."""
    from repro.obs.history import build_report, read_history

    if not read_history(args.history):
        print(f"error: no benchmark history at {args.history}", file=sys.stderr)
        return 2
    try:
        report = build_report(
            args.history,
            baseline_path=args.baseline,
            max_regression=args.max_regression,
        )
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    text = report.to_markdown()
    try:
        if args.out:
            with open(args.out, "w") as handle:
                handle.write(text)
                if not text.endswith("\n"):
                    handle.write("\n")
            print(f"report  : {args.out}", file=sys.stderr)
        if args.html:
            with open(args.html, "w") as handle:
                handle.write(report.to_html())
            print(f"html    : {args.html}", file=sys.stderr)
        if args.json:
            with open(args.json, "w") as handle:
                handle.write(report.to_json())
            print(f"json    : {args.json}", file=sys.stderr)
    except OSError as exc:
        raise SystemExit(f"error: cannot write report: {exc}")
    print(text)
    if not report.passed:
        for experiment, delta in report.regressions:
            print(
                f"REGRESSION: {experiment}: {delta.metric} "
                f"{delta.baseline:.6g} -> {delta.latest:.6g} "
                f"({delta.change:+.1%})",
                file=sys.stderr,
            )
        return 1
    return 0


def _parse_when(value: Optional[str]) -> Optional[float]:
    """``--since``/``--until`` values: unix seconds or local dates."""
    if value is None:
        return None
    try:
        return float(value)
    except ValueError:
        pass
    for fmt in ("%Y-%m-%d %H:%M:%S", "%Y-%m-%d %H:%M", "%Y-%m-%d"):
        try:
            return time.mktime(time.strptime(value, fmt))
        except ValueError:
            continue
    raise SystemExit(
        f"error: cannot parse time {value!r} "
        "(use unix seconds or YYYY-MM-DD [HH:MM[:SS]])"
    )


def _runs_ledger(args):
    """The ledger the ``runs`` subcommands operate on (or exit 2)."""
    from repro.obs.ledger import RunLedger, default_ledger_path

    path = args.ledger or default_ledger_path()
    if not path:
        print("error: the run ledger is disabled (REPRO_LEDGER_DIR "
              "is empty); pass --ledger PATH", file=sys.stderr)
        raise SystemExit(2)
    return RunLedger(path)


def _when(started_unix) -> str:
    try:
        return time.strftime(
            "%Y-%m-%d %H:%M:%S", time.localtime(float(started_unix))
        )
    except (TypeError, ValueError, OverflowError):
        return "?"


def cmd_runs_list(args) -> int:
    """Tabulate (or dump) matching ledger records, oldest first."""
    import json

    ledger = _runs_ledger(args)
    records = ledger.records(
        command=args.command_filter,
        experiment=args.experiment,
        outcome=args.outcome,
        spec=args.spec,
        since=_parse_when(args.since),
        until=_parse_when(args.until),
        devices_min=args.devices_min,
    )
    if args.limit and args.limit > 0:
        records = records[-args.limit:]
    if args.json:
        print(json.dumps(records, indent=2))
        return 0
    if not records:
        print(f"no matching ledger records in {ledger.path}")
        return 0
    rows = []
    for record in records:
        points = record.get("points") or {}
        cache = record.get("cache") or {}
        resources = record.get("resources") or {}
        hit_rate = cache.get("hit_rate")
        rows.append([
            record.get("id", "?"),
            _when(record.get("started_unix")),
            record.get("command", "?"),
            record.get("experiment") or "—",
            record.get("outcome", "?"),
            points.get("total", "—"),
            record.get("n_devices") or "—",
            "—" if hit_rate is None else f"{hit_rate:.0%}",
            f"{record.get('wall_s', 0.0):.2f}",
            f"{resources.get('cpu_s', 0.0):.2f}",
        ])
    print(format_table(
        ["id", "started", "command", "experiment", "outcome",
         "points", "devices", "hit", "wall s", "cpu s"],
        rows,
    ))
    return 0


def _find_record(ledger, id_prefix: str):
    try:
        return ledger.find(id_prefix)
    except (KeyError, ValueError) as exc:
        raise SystemExit(f"error: {exc.args[0]}")


def cmd_runs_show(args) -> int:
    """Render one ledger record in full."""
    import json

    ledger = _runs_ledger(args)
    record = _find_record(ledger, args.id)
    if args.json:
        print(json.dumps(record, indent=2, sort_keys=True))
        return 0
    points = record.get("points") or {}
    cache = record.get("cache") or {}
    resources = record.get("resources") or {}
    print(f"id          : {record.get('id')}")
    print(f"command     : {record.get('command')}")
    print(f"experiment  : {record.get('experiment') or '—'}")
    print(f"outcome     : {record.get('outcome')}")
    print(f"started     : {_when(record.get('started_unix'))}")
    print(f"wall        : {record.get('wall_s', 0.0):.2f} s")
    print(f"spec hash   : {record.get('spec_hash') or '—'}")
    if record.get("n_devices") is not None:
        print(f"devices     : {record['n_devices']}")
    print(f"code version: {record.get('code_version')} "
          f"(git {str(record.get('git_sha', ''))[:12]})")
    if points:
        print(f"points      : {points.get('total')} total — "
              f"{points.get('executed')} executed, "
              f"{points.get('cached')} cached, "
              f"{points.get('failed')} failed, "
              f"{points.get('interrupted', 0)} interrupted")
    if cache:
        print(f"cache       : {cache.get('hits')} hit(s), "
              f"{cache.get('misses')} miss(es) "
              f"({cache.get('hit_rate', 0.0):.0%} hit rate)")
    if resources:
        print(f"resources   : cpu {resources.get('cpu_s', 0.0):.2f} s, "
              f"peak rss {resources.get('peak_rss_kb', 0.0):.0f} KB, "
              f"{resources.get('workers', 0)} worker(s)")
    telemetry = record.get("telemetry") or {}
    if telemetry:
        line = f"telemetry   : {telemetry.get('snapshots', 0)} snapshot(s)"
        if telemetry.get("every_s"):
            line += f" every {telemetry['every_s']:.4g} s"
        if telemetry.get("out"):
            line += f" -> {telemetry['out']}"
        print(line)
    if record.get("error"):
        first_line = str(record["error"]).strip().splitlines()
        print(f"error       : {first_line[-1] if first_line else '?'}")
    runs = record.get("runs") or []
    if runs:
        print()
        rows = [
            [
                run.get("label", "?"),
                run.get("status", "?"),
                f"{run.get('wall_s') or 0.0:.2f}",
                f"{run.get('cpu_s') or 0.0:.2f}",
                f"{run.get('peak_rss_kb') or 0.0:.0f}",
                run.get("pid") if run.get("pid") is not None else "—",
            ]
            for run in runs
        ]
        print(format_table(
            ["point", "status", "wall s", "cpu s", "rss KB", "pid"], rows
        ))
    return 0


def cmd_runs_diff(args) -> int:
    """Compare two ledger records (cache hits, wall, resources)."""
    import json

    from repro.obs.ledger import diff_records, format_diff

    ledger = _runs_ledger(args)
    a = _find_record(ledger, args.a)
    b = _find_record(ledger, args.b)
    diff = diff_records(a, b)
    if args.json:
        print(json.dumps(diff, indent=2, sort_keys=True))
        return 0
    print(format_diff(diff))
    return 0


def cmd_runs_gc(args) -> int:
    """Prune ledger records whose cached results were all evicted."""
    ledger = _runs_ledger(args)
    kept, pruned = ledger.gc(
        cache_root=args.cache_dir, dry_run=args.dry_run
    )
    verb = "would prune" if args.dry_run else "pruned"
    print(f"ledger  : {verb} {pruned} record(s), kept {kept} "
          f"({ledger.path})")
    return 0


def cmd_outages(args) -> int:
    trace = _make_trace(args)
    stats = analyze_outages(trace, DEFAULT_THRESHOLD_W)
    print(f"trace          : {trace}")
    print(f"threshold      : {DEFAULT_THRESHOLD_W * 1e6:.0f} uW")
    print(f"outages        : {stats.count} "
          f"({stats.emergencies_per_second(trace.duration_s):.0f}/s)")
    print(f"mean duration  : {stats.mean_duration_s * 1e3:.2f} ms")
    print(f"max duration   : {stats.max_duration_s * 1e3:.1f} ms")
    print(f"supply duty    : {stats.duty_cycle:.1%}")
    return 0


def cmd_kernels(args) -> int:
    if not args.verify:
        for name in sorted(KERNELS):
            print(name)
        return 0
    from repro.isa.cpu import CPU

    failures = 0
    for name in sorted(KERNELS):
        build = build_kernel(name)
        cpu = CPU(build.program.instructions)
        cpu.memory.load_image(build.program.data_image)
        cpu.run(max_instructions=20_000_000)
        outputs = np.array(cpu.memory.output, dtype=np.uint16)
        ok = cpu.state.halted and np.array_equal(outputs, build.expected_output)
        print(f"{name:12s} {'OK' if ok else 'FAIL'} "
              f"({cpu.instructions_retired} instructions)")
        failures += 0 if ok else 1
    return 1 if failures else 0


def cmd_compile(args) -> int:
    with open(args.file) as handle:
        source = handle.read()
    from repro.lang.codegen import compile_source
    from repro.lang.lint import lint as lint_program

    compiled = compile_source(source, optimize=args.optimize)
    warnings = lint_program(source)
    if args.emit_asm:
        print(compiled.asm)
    else:
        print(
            f"compiled {args.file}: {len(compiled.program.instructions)} "
            f"instructions, {len(compiled.program.data_image)} data words"
        )
    for warning in warnings:
        print(
            f"lint: {warning.function}:{warning.line}: global "
            f"{warning.name!r} is {warning.kind} — not replay-idempotent "
            "on an NVP"
        )
    if args.run:
        from repro.isa.cpu import CPU

        cpu = CPU(compiled.program.instructions)
        cpu.memory.load_image(compiled.program.data_image)
        cpu.run(max_instructions=args.max_instructions)
        status = "halted" if cpu.state.halted else "BUDGET EXCEEDED"
        print(f"run: {cpu.instructions_retired} instructions, {status}")
        print(f"outputs: {cpu.memory.output}")
    return 0


def cmd_profile(args) -> int:
    from repro.analysis.profiler import profile_program

    if args.kernel:
        build = build_kernel(args.kernel)
        program = build.program
        label = args.kernel
    else:
        if not args.file:
            print("profile: need --kernel or --file", file=sys.stderr)
            return 2
        from repro.lang.codegen import compile_source

        with open(args.file) as handle:
            program = compile_source(handle.read()).program
        label = args.file
    metrics = None
    if args.metrics:
        from repro.obs import MetricsRegistry

        metrics = MetricsRegistry()
    profile = profile_program(
        program,
        max_instructions=args.max_instructions,
        metrics=metrics,
        label=label,
    )
    print(f"profile of {label}:")
    print(profile.report(top=args.top))
    if metrics is not None:
        from repro.obs import write_metrics_csv

        count = write_metrics_csv(metrics, args.metrics)
        print(f"metrics : {args.metrics} ({count} series rows)")
    return 0


def cmd_techs(args) -> int:
    del args
    rows = []
    for tech in TECHNOLOGIES:
        rows.append(
            [
                tech.name,
                tech.write_energy_j_per_bit * 1e12,
                tech.wakeup_time_s * 1e6,
                f"{tech.endurance_cycles:.1g}",
                tech.backup_energy_j(DEFAULT_STATE_BITS) * 1e12,
            ]
        )
    print(format_table(
        ["technology", "write pJ/bit", "wakeup us", "endurance", "backup pJ"], rows
    ))
    return 0


def _add_trace_arguments(parser) -> None:
    parser.add_argument(
        "--source",
        choices=sorted(SOURCE_GENERATORS) + ["hybrid"],
        default="wristwatch",
        help="harvesting source class",
    )
    parser.add_argument("--duration", type=float, default=5.0,
                        help="simulated seconds")
    parser.add_argument("--seed", type=int, default=7, help="trace RNG seed")
    parser.add_argument("--mean-uw", type=float, default=None,
                        help="rescale the trace to this mean power (uW)")


def _add_export_arguments(parser) -> None:
    parser.add_argument("--trace", default=None, metavar="OUT.json",
                        help="write a Chrome trace-event JSON "
                             "(open in Perfetto / chrome://tracing)")
    parser.add_argument("--events", default=None, metavar="OUT.jsonl",
                        help="write the raw event log as JSON lines")
    parser.add_argument("--metrics", default=None, metavar="OUT.csv",
                        help="write the metrics registry as CSV")
    parser.add_argument("--manifest", default=None, metavar="OUT.json",
                        help="write a reproducibility manifest "
                             "(seed, config, git SHA, durations)")


def _add_cache_arguments(parser, no_cache_help: str) -> None:
    parser.add_argument("--no-cache", action="store_true",
                        help=no_cache_help)
    parser.add_argument("--fresh", action="store_true",
                        help="clear the cache namespace before running")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="cache root (default: $REPRO_CACHE_DIR "
                             "or .repro-cache)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="nvpsim: nonvolatile-processor simulation framework",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser(
        "simulate", aliases=["run"], help="run one platform on one trace"
    )
    _add_trace_arguments(p_sim)
    p_sim.add_argument("--platform", choices=sorted(PLATFORM_BUILDERS),
                       default="nvp")
    p_sim.add_argument("--kernel", choices=sorted(KERNELS), default=None,
                       help="run a real NV16 kernel instead of the abstract mix")
    p_sim.add_argument("--frames", type=int, default=5,
                       help="frames for --kernel workloads")
    p_sim.add_argument("--json", action="store_true",
                       help="emit the full result as JSON")
    p_sim.add_argument("--no-fast-forward", action="store_true",
                       help="force exact per-tick execution "
                            "(disable the steady-state fast path)")
    p_sim.add_argument("--no-exact-batch", action="store_true",
                       help="disable the batched active-tick exact "
                            "kernel (scalar interpreter only)")
    p_sim.add_argument("--no-block-engine", action="store_true",
                       help="execute NV16 kernels instruction by "
                            "instruction through CPU.step (disable the "
                            "block-compiled execution engine)")
    p_sim.add_argument("--sample-stride", type=int, default=0, metavar="N",
                       help="emit a sim.sample event every N ticks "
                            "(0 = off; synthesized on the fast path)")
    p_sim.add_argument("--profile", action="store_true",
                       help="run under cProfile and print the top-20 "
                            "cumulative entries")
    p_sim.add_argument("--profile-out", default=None, metavar="OUT.pstats",
                       help="also dump the full cProfile stats "
                            "(implies --profile; inspect with pstats/snakeviz)")
    _add_export_arguments(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_obs = sub.add_parser(
        "observe",
        help="run one platform fully instrumented and summarise its events",
    )
    _add_trace_arguments(p_obs)
    p_obs.add_argument("--platform", choices=sorted(PLATFORM_BUILDERS),
                       default="nvp")
    p_obs.add_argument("--kernel", choices=sorted(KERNELS), default=None,
                       help="run a real NV16 kernel instead of the abstract mix")
    p_obs.add_argument("--frames", type=int, default=5,
                       help="frames for --kernel workloads")
    p_obs.add_argument("--interval", type=float, default=None,
                       help="print a progress line every N simulated seconds")
    _add_export_arguments(p_obs)
    p_obs.set_defaults(func=cmd_observe)

    p_cmp = sub.add_parser("compare", help="compare all platforms on one trace")
    _add_trace_arguments(p_cmp)
    p_cmp.add_argument("--jobs", type=int, default=1,
                       help="worker processes (1 = in-process serial)")
    p_cmp.set_defaults(func=cmd_compare)

    p_sweep = sub.add_parser(
        "sweep",
        help="run a declarative experiment spec (parallel, cached, resumable)",
    )
    p_sweep.add_argument("spec", help="experiment spec JSON file "
                                      "(see docs/experiments.md)")
    p_sweep.add_argument("--jobs", type=int, default=1,
                         help="worker processes (1 = in-process serial)")
    p_sweep.add_argument("--timeout", type=float, default=None,
                         help="per-run wall-clock budget in seconds")
    _add_cache_arguments(p_sweep, "execute every point, read/write no cache")
    p_sweep.add_argument("--results-dir", default=None, metavar="DIR",
                         help="also write a benchmarks-results JSON here")
    p_sweep.add_argument("--quiet", action="store_true",
                         help="suppress live per-point progress")
    p_sweep.add_argument("--live", action="store_true",
                         help="in-place progress view (done/total, ETA, "
                              "cache-hit rate, worker utilization); "
                              "falls back to plain progress lines when "
                              "stdout is not a TTY")
    p_sweep.add_argument("--trace", default=None, metavar="OUT.json",
                         help="write a Chrome trace of the sweep timeline "
                              "(per-worker spans with cache-hit "
                              "attribution; open in Perfetto)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_fleet = sub.add_parser(
        "fleet",
        help="batched lockstep simulation of device populations",
    )
    fleet_sub = p_fleet.add_subparsers(dest="fleet_command", required=True)

    def _fleet_common(parser) -> None:
        parser.add_argument("spec", help="fleet spec JSON file "
                                         "(see docs/fleet.md)")
        _add_cache_arguments(parser, "simulate every device, read/write no cache")
        parser.add_argument("--results-dir", default=None, metavar="DIR",
                            help="also write a benchmarks-results JSON here")
        parser.add_argument("--telemetry-out", default=None,
                            metavar="OUT.jsonl",
                            help="append population telemetry snapshots "
                                 "here (JSONL; a Prometheus textfile "
                                 "sibling OUT.jsonl.prom tracks the "
                                 "latest snapshot)")
        parser.add_argument("--telemetry-every", type=float, default=None,
                            metavar="SECONDS",
                            help="telemetry sampling cadence in simulated "
                                 "seconds (default: the spec's "
                                 "telemetry_every_s, else ~50 samples "
                                 "across the longest device)")

    p_fleet_run = fleet_sub.add_parser(
        "run",
        help="advance a fleet spec through the vectorized kernel",
    )
    _fleet_common(p_fleet_run)
    p_fleet_run.add_argument("--quiet", action="store_true",
                             help="suppress fleet progress lines")
    p_fleet_run.add_argument("--json", action="store_true",
                             help="print the fleet summary as JSON")
    p_fleet_run.add_argument("--replay-device", type=int, default=None,
                             metavar="INDEX",
                             help="after the fleet run, re-run one device "
                                  "through the single-device engine "
                                  "(bit-identical) with full observability")
    p_fleet_run.add_argument("--events", default=None, metavar="OUT.jsonl",
                             help="with --replay-device: write the "
                                  "device's event stream here")
    p_fleet_run.add_argument("--metrics", default=None, metavar="OUT.csv",
                             help="with --replay-device: write the "
                                  "device's metrics here")
    p_fleet_run.add_argument("--manifest", default=None, metavar="OUT.json",
                             help="with --replay-device: write a run "
                                  "manifest (stamped with n_devices) here")
    p_fleet_run.set_defaults(func=cmd_fleet_run, watch=False)

    p_fleet_watch = fleet_sub.add_parser(
        "watch",
        help="run a fleet with the live population dashboard "
             "(in-place on a TTY, line-buffered when piped)",
    )
    _fleet_common(p_fleet_watch)
    p_fleet_watch.set_defaults(
        func=cmd_fleet_run, watch=True, quiet=False, json=False,
        replay_device=None, events=None, metrics=None, manifest=None,
    )

    p_fleet_corr = fleet_sub.add_parser(
        "correlate",
        help="cross-device outage correlation from the traces alone "
             "(no simulation)",
    )
    p_fleet_corr.add_argument("spec", help="fleet spec JSON file")
    p_fleet_corr.add_argument("--window", type=float, default=None,
                              metavar="SECONDS",
                              help="co-outage window size (default: "
                                   "~1%% of the longest device trace)")
    p_fleet_corr.add_argument("--threshold", type=float,
                              default=DEFAULT_THRESHOLD_W, metavar="W",
                              help="outage power threshold in watts "
                                   "(default: %(default)s)")
    p_fleet_corr.add_argument("--storm-fraction", type=float, default=0.5,
                              metavar="FRAC",
                              help="fleet outage fraction that counts as "
                                   "a storm (default: %(default)s)")
    p_fleet_corr.add_argument("--json", action="store_true",
                              help="print the correlation report as JSON")
    p_fleet_corr.add_argument("--out", default=None, metavar="OUT.json",
                              help="also write the report here")
    p_fleet_corr.set_defaults(func=cmd_fleet_correlate)

    p_bench = sub.add_parser(
        "bench-report",
        help="diff benchmark history against a baseline and gate regressions",
    )
    p_bench.add_argument(
        "--history",
        default=DEFAULT_HISTORY_PATH,
        metavar="HISTORY.jsonl",
        help="benchmark history to report on "
             f"(default: {DEFAULT_HISTORY_PATH})",
    )
    p_bench.add_argument(
        "--baseline", default=None, metavar="BASELINE.jsonl",
        help="baseline history file (default: the previous record of "
             "each experiment in --history)",
    )
    p_bench.add_argument(
        "--max-regression", type=float, default=DEFAULT_MAX_REGRESSION,
        metavar="FRAC",
        help="fail when a gated (throughput/speedup) metric drops by "
             "more than this fraction (default: %(default)s)",
    )
    p_bench.add_argument("--out", default=None, metavar="OUT.md",
                         help="also write the markdown report here")
    p_bench.add_argument("--html", default=None, metavar="OUT.html",
                         help="also write an HTML report here")
    p_bench.add_argument("--json", default=None, metavar="OUT.json",
                         help="also write the machine-readable report "
                              "here (CI artifact)")
    p_bench.set_defaults(func=cmd_bench_report)

    p_runs = sub.add_parser(
        "runs",
        help="query the run ledger (what ran, when, at what cost)",
    )
    p_runs.add_argument("--ledger", default=None, metavar="LEDGER.jsonl",
                        help="ledger file (default: $REPRO_LEDGER_DIR or "
                             "the cache dir + /ledger.jsonl)")
    runs_sub = p_runs.add_subparsers(dest="runs_command", required=True)

    p_runs_list = runs_sub.add_parser("list", help="tabulate ledger records")
    p_runs_list.add_argument("--command", dest="command_filter",
                             default=None, metavar="CMD",
                             help="exact command filter (sweep, simulate, "
                                  "compare, bench:<name>, ...)")
    p_runs_list.add_argument("--experiment", default=None,
                             help="exact experiment/spec name filter")
    p_runs_list.add_argument("--outcome", default=None,
                             choices=["ok", "error", "timeout",
                                      "interrupted"],
                             help="outcome filter")
    p_runs_list.add_argument("--spec", default=None, metavar="HASHPREFIX",
                             help="spec-hash prefix filter")
    p_runs_list.add_argument("--since", default=None, metavar="WHEN",
                             help="records started at/after WHEN "
                                  "(unix seconds or YYYY-MM-DD)")
    p_runs_list.add_argument("--until", default=None, metavar="WHEN",
                             help="records started at/before WHEN")
    p_runs_list.add_argument("--devices-min", dest="devices_min", type=int,
                             default=None, metavar="N",
                             help="only records with at least N devices "
                                  "(fleet runs)")
    p_runs_list.add_argument("--limit", type=int, default=None, metavar="N",
                             help="only the newest N matches")
    p_runs_list.add_argument("--json", action="store_true",
                             help="dump matching records as JSON")
    p_runs_list.set_defaults(func=cmd_runs_list)

    p_runs_show = runs_sub.add_parser(
        "show", help="render one ledger record in full"
    )
    p_runs_show.add_argument("id", help="record id (unique prefix ok)")
    p_runs_show.add_argument("--json", action="store_true",
                             help="dump the record as JSON")
    p_runs_show.set_defaults(func=cmd_runs_show)

    p_runs_diff = runs_sub.add_parser(
        "diff",
        help="compare two records (points, cache hits, wall, resources)",
    )
    p_runs_diff.add_argument("a", help="baseline record id (prefix ok)")
    p_runs_diff.add_argument("b", help="comparison record id (prefix ok)")
    p_runs_diff.add_argument("--json", action="store_true",
                             help="dump the structured diff as JSON")
    p_runs_diff.set_defaults(func=cmd_runs_diff)

    p_runs_gc = runs_sub.add_parser(
        "gc",
        help="prune records whose cached results were all evicted",
    )
    p_runs_gc.add_argument("--cache-dir", default=None, metavar="DIR",
                           help="cache root to check against (default: "
                                "$REPRO_CACHE_DIR or .repro-cache)")
    p_runs_gc.add_argument("--dry-run", action="store_true",
                           help="report what would be pruned, touch "
                                "nothing")
    p_runs_gc.set_defaults(func=cmd_runs_gc)

    p_out = sub.add_parser("outages", help="outage statistics of a trace")
    _add_trace_arguments(p_out)
    p_out.set_defaults(func=cmd_outages)

    p_ker = sub.add_parser("kernels", help="list (or verify) the kernel suite")
    p_ker.add_argument("--verify", action="store_true",
                       help="execute every kernel and check its reference")
    p_ker.set_defaults(func=cmd_kernels)

    p_tech = sub.add_parser("techs", help="print the NVM technology table")
    p_tech.set_defaults(func=cmd_techs)

    p_compile = sub.add_parser(
        "compile", help="compile an NVC source file (with intermittency lint)"
    )
    p_compile.add_argument("file", help="NVC source file")
    p_compile.add_argument("--emit-asm", action="store_true",
                           help="print the generated NV16 assembly")
    p_compile.add_argument("--run", action="store_true",
                           help="execute the compiled program")
    p_compile.add_argument("-O", "--optimize", action="store_true",
                           help="constant-fold and prune dead branches")
    p_compile.add_argument("--max-instructions", type=int, default=1_000_000)
    p_compile.set_defaults(func=cmd_compile)

    p_profile = sub.add_parser(
        "profile", help="energy-profile a kernel or NVC source file"
    )
    p_profile.add_argument("--kernel", choices=sorted(KERNELS), default=None)
    p_profile.add_argument("--file", default=None, help="NVC source file")
    p_profile.add_argument("--top", type=int, default=10)
    p_profile.add_argument("--max-instructions", type=int, default=5_000_000)
    p_profile.add_argument("--metrics", default=None, metavar="OUT.csv",
                           help="write the attribution as metrics CSV")
    p_profile.set_defaults(func=cmd_profile)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except KeyboardInterrupt:
        # Conventional SIGINT status, no traceback.  Commands that can
        # do better (sweep) catch SweepInterrupted first, write their
        # ledger record, and return 130 themselves.
        print("interrupted", file=sys.stderr)
        return 130
    except BrokenPipeError:
        # stdout reader went away (e.g. ``repro bench-report | head``):
        # exit with the conventional SIGPIPE status, no traceback.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
