"""BENCH_core — wall-clock of the core tick engine, engines vs. exact.

Times the same simulation four ways — both bulk engines enabled (the
default: dormant-tick fast-forward + the batched active-tick exact
kernel), fast-forward only (``use_exact_batch=False``), and forced
onto the scalar per-tick path (both engines off) — across the presets
that span the engine's behaviour space, asserts every path returns
bit-identical :class:`~repro.system.result.SimulationResult`s, and
publishes ``benchmarks/results/BENCH_core.json`` as the
perf-trajectory baseline (see ``docs/performance.md``).

Each preset also runs *observed* — an event bus with a non-TICK
subscriber attached — which must keep both bulk engines (run-length
event synthesis, PR 5) and stay within
``NVPSIM_PERF_MAX_OBS_OVERHEAD`` of the unobserved fast wall-clock.

Each row splits ticks by phase: ``dormant_ticks`` were fast-forwarded,
``active_ticks`` executed (batched or scalar) while powered on.

Every configuration is timed ``REPEATS`` (5) times, and every time a
row reports and every floor or ceiling gates on is the median: with
the native kernels the unobserved runs of the floored presets take a
few milliseconds on short traces, where one scheduler hiccup in a
single shot moves a gated ratio.

Environment knobs::

    NVPSIM_BENCH_PERF_DURATION   simulated seconds per trace (default 60)
    NVPSIM_PERF_MIN_SPEEDUP      floor asserted on the outage-heavy
                                 preset (default 3.0)
    NVPSIM_PERF_MIN_SPEEDUP_CHARGE
                                 floor asserted on the charge-dominated
                                 preset (default 2.0)
    NVPSIM_PERF_MIN_SPEEDUP_BATCH
                                 floor asserted on the run-dominated
                                 oracle preset, which only the batched
                                 exact kernel can speed up (default 2.0)
    NVPSIM_PERF_MIN_SPEEDUP_ISA  end-to-end floor asserted on the
                                 compiled (NV16) preset against the
                                 scalar instruction interpreter with
                                 the block engine disabled
                                 (default 2.0)
    NVPSIM_PERF_MAX_OBS_OVERHEAD max observed/fast wall-clock ratio
                                 asserted on floored presets
                                 (default 1.3)
    NVPSIM_PERF_MAX_OBS_OVERHEAD_ACTIVE
                                 same ceiling for run-dominated
                                 presets, where event synthesis has no
                                 dormant bulk to amortise against
                                 (default 2.5)

Run standalone (CI perf-smoke does) with::

    PYTHONPATH=src python benchmarks/bench_perf_core.py
"""

from __future__ import annotations

import functools
import os
import statistics
import time

from common import print_header, publish_metrics, publish_table

from repro.harvest.sources import square_trace, wristwatch_trace
from repro.obs import events as ev
from repro.obs.events import EventBus
from repro.system.presets import (
    build_checkpoint,
    build_nvp,
    build_oracle,
    build_wait_compute,
    standard_rectifier,
)
from repro.system.simulator import SystemSimulator
from repro.workloads.base import AbstractWorkload
from repro.workloads.suite import build_kernel, make_functional_workload

PERF_DURATION_S = float(os.environ.get("NVPSIM_BENCH_PERF_DURATION", "60"))
MIN_SPEEDUP_OUTAGE = float(os.environ.get("NVPSIM_PERF_MIN_SPEEDUP", "3.0"))
MIN_SPEEDUP_CHARGE = float(
    os.environ.get("NVPSIM_PERF_MIN_SPEEDUP_CHARGE", "2.0")
)
MIN_SPEEDUP_BATCH = float(
    os.environ.get("NVPSIM_PERF_MIN_SPEEDUP_BATCH", "2.0")
)
MIN_SPEEDUP_ISA = float(
    os.environ.get("NVPSIM_PERF_MIN_SPEEDUP_ISA", "2.0")
)
MAX_OBS_OVERHEAD = float(
    os.environ.get("NVPSIM_PERF_MAX_OBS_OVERHEAD", "1.3")
)
MAX_OBS_OVERHEAD_ACTIVE = float(
    os.environ.get("NVPSIM_PERF_MAX_OBS_OVERHEAD_ACTIVE", "2.5")
)

#: Trace seed (fixed: the perf trajectory must compare like with like).
PERF_SEED = 2017

#: Timed runs per configuration; rows report the median time.
REPEATS = 5


def outage_heavy_trace():
    """8% duty square wave: the off/charge-dominated worst case."""
    return square_trace(400e-6, 0.0, 2.0, 0.08, PERF_DURATION_S)


def wristwatch() -> object:
    return wristwatch_trace(PERF_DURATION_S, seed=PERF_SEED)


def abstract_workload():
    return AbstractWorkload()


def run_heavy_trace():
    """90% duty square wave: active (executing) ticks dominate."""
    return square_trace(400e-6, 0.0, 2.0, 0.9, PERF_DURATION_S)


def fir_workload(block_engine=True):
    """A compiled NV16 FIR run sized to outlast the whole trace."""
    frames = max(2, int(PERF_DURATION_S * 10))
    return make_functional_workload(
        build_kernel("fir"), frames=frames, block_engine=block_engine
    )


#: (preset, platform builder, workload factory, trace factory,
#: asserted min speedup, asserted min isa speedup).
#: ``oracle_guard`` never fast-forwards while running — its floor is
#: carried entirely by the batched active-tick exact kernel.
#: ``nvp_fir_compiled`` runs a real NV16 program; its floor compares
#: the full engine stack against the scalar instruction interpreter
#: (its factory called with ``block_engine=False``, per-tick loop).
PRESETS = (
    ("outage_heavy_nvp", build_nvp, abstract_workload, outage_heavy_trace,
     MIN_SPEEDUP_OUTAGE, None),
    ("charge_dominated_wait", build_wait_compute, abstract_workload,
     outage_heavy_trace, MIN_SPEEDUP_CHARGE, None),
    ("outage_heavy_checkpoint", build_checkpoint, abstract_workload,
     outage_heavy_trace, None, None),
    ("wristwatch_nvp", build_nvp, abstract_workload, wristwatch, None, None),
    ("oracle_guard", build_oracle, abstract_workload, wristwatch,
     MIN_SPEEDUP_BATCH, None),
    ("nvp_fir_compiled", build_nvp, fir_workload, run_heavy_trace,
     None, MIN_SPEEDUP_ISA),
)


def _timed_run(builder, workload_factory, trace, use_fast_forward,
               use_exact_batch, observed=False):
    """``REPEATS`` fresh runs of one configuration.

    Returns the first run's result and simulator (every repeat must
    give the same result), the median wall time, and for an observed
    run (a non-TICK subscriber on an event bus) the first run's event
    log.
    """
    times = []
    first = None
    for _ in range(REPEATS):
        bus = log = None
        if observed:
            bus = EventBus()
            log = bus.record(names=ev.NON_TICK_EVENT_NAMES)
        simulator = SystemSimulator(
            trace,
            builder(workload_factory()),
            rectifier=standard_rectifier(),
            stop_when_finished=False,
            bus=bus,
            use_fast_forward=use_fast_forward,
            use_exact_batch=use_exact_batch,
        )
        started = time.perf_counter()
        result = simulator.run()
        times.append(time.perf_counter() - started)
        if first is None:
            first = (result, simulator, log)
        assert result.to_dict() == first[0].to_dict(), (
            "a repeated run gave another result"
        )
    result, simulator, log = first
    return result, statistics.median(times), simulator, log


def run_presets():
    rows = []
    for (preset, builder, make_workload, make_trace, min_speedup,
         isa_floor) in PRESETS:
        trace = make_trace()
        exact_result, exact_s, _, _ = _timed_run(
            builder, make_workload, trace, False, False
        )
        fast_result, fast_s, simulator, _ = _timed_run(
            builder, make_workload, trace, None, None
        )
        nobatch_result, nobatch_s, _, _ = _timed_run(
            builder, make_workload, trace, None, False
        )
        observed_result, observed_s, observed_sim, log = _timed_run(
            builder, make_workload, trace, None, None, observed=True
        )
        noengine_s = None
        noengine_identical = True
        if isa_floor is not None:
            # The scalar instruction interpreter: block engine off,
            # per-tick advance.  Dormant fast-forward stays on in both
            # runs, so the ratio isolates active-tick execution plus
            # batching — the two layers this preset exists to gate.
            noengine_result, noengine_s, _, _ = _timed_run(
                builder, functools.partial(make_workload, block_engine=False),
                trace, None, False,
            )
            noengine_identical = (
                noengine_result.to_dict() == exact_result.to_dict()
            )
        identical = fast_result.to_dict() == exact_result.to_dict()
        nobatch_identical = nobatch_result.to_dict() == exact_result.to_dict()
        observed_identical = (
            observed_result.to_dict() == exact_result.to_dict()
        )
        speedup = exact_s / fast_s if fast_s > 0 else float("inf")
        rows.append({
            "preset": preset,
            "platform": fast_result.label,
            "ticks": len(trace),
            "ticks_fast_forwarded": simulator.ticks_fast_forwarded,
            "ticks_batched": simulator.ticks_batched,
            "ticks_exact": simulator.ticks_exact,
            "active_ticks": simulator.ticks_batched + simulator.ticks_exact,
            "dormant_ticks": simulator.ticks_fast_forwarded,
            "exact_s": exact_s,
            "fast_s": fast_s,
            "nobatch_s": nobatch_s,
            "observed_s": observed_s,
            "obs_overhead": observed_s / fast_s if fast_s > 0 else 1.0,
            "events": len(log),
            "speedup": speedup,
            "batch_speedup": nobatch_s / fast_s if fast_s > 0 else 1.0,
            "identical": identical,
            "nobatch_identical": nobatch_identical,
            "observed_identical": observed_identical,
            "observed_fast_forwarded": observed_sim.ticks_fast_forwarded,
            "observed_batched": observed_sim.ticks_batched,
            "min_speedup": min_speedup,
            "noengine_s": noengine_s,
            "noengine_identical": noengine_identical,
            "isa_speedup": (
                noengine_s / fast_s
                if noengine_s is not None and fast_s > 0 else None
            ),
            "instr_per_s": (
                fast_result.total_executed / fast_s if fast_s > 0 else 0.0
            ),
            "isa_floor": isa_floor,
        })
    return rows


def check_rows(rows):
    for row in rows:
        assert row["identical"], (
            f"{row['preset']}: fast path diverged from the exact path"
        )
        assert row["nobatch_identical"], (
            f"{row['preset']}: fast-forward-only path diverged"
        )
        assert row["observed_identical"], (
            f"{row['preset']}: observed fast path diverged"
        )
        # Engine selection depends only on the subscription set, so
        # the observed run must route the exact same ticks through
        # each engine.
        assert row["observed_fast_forwarded"] == row["ticks_fast_forwarded"], (
            f"{row['preset']}: observed run fast-forwarded "
            f"{row['observed_fast_forwarded']} ticks, unobserved "
            f"{row['ticks_fast_forwarded']}"
        )
        assert row["observed_batched"] == row["ticks_batched"], (
            f"{row['preset']}: observed run batched "
            f"{row['observed_batched']} ticks, unobserved "
            f"{row['ticks_batched']}"
        )
        assert row["events"] >= 2, (
            f"{row['preset']}: observed run produced no events"
        )
        assert row["noengine_identical"], (
            f"{row['preset']}: scalar-interpreter path diverged"
        )
        isa_floor = row["isa_floor"]
        if isa_floor is not None:
            assert row["isa_speedup"] >= isa_floor, (
                f"{row['preset']}: block engine {row['isa_speedup']:.2f}x "
                f"< required {isa_floor:.1f}x over the scalar interpreter "
                f"(interpreter {row['noengine_s']:.3f}s, "
                f"engine {row['fast_s']:.3f}s)"
            )
        floor = row["min_speedup"]
        if floor is not None:
            assert row["speedup"] >= floor, (
                f"{row['preset']}: {row['speedup']:.2f}x < required "
                f"{floor:.1f}x (exact {row['exact_s']:.3f}s, "
                f"fast {row['fast_s']:.3f}s)"
            )
            # A run-dominated preset has no dormant bulk to amortise
            # event synthesis against, so its ceiling is looser.
            ceiling = (
                MAX_OBS_OVERHEAD if row["dormant_ticks"]
                else MAX_OBS_OVERHEAD_ACTIVE
            )
            assert row["observed_s"] <= ceiling * row["fast_s"], (
                f"{row['preset']}: observed run {row['observed_s']:.3f}s "
                f"exceeds {ceiling:.2f}x the unobserved fast "
                f"path ({row['fast_s']:.3f}s)"
            )


def open_result():
    """Print the banner and open the result, starting its manifest's
    clock; called before :func:`run_presets` so ``duration_s`` covers
    the timed runs."""
    print_header(
        "BENCH_core",
        f"core tick engine: bulk engines vs exact "
        f"({PERF_DURATION_S:g}s traces)",
        config={
            "duration_s": PERF_DURATION_S,
            "repeats": REPEATS,
            "min_speedup_outage": MIN_SPEEDUP_OUTAGE,
            "min_speedup_charge": MIN_SPEEDUP_CHARGE,
            "min_speedup_batch": MIN_SPEEDUP_BATCH,
            "min_speedup_isa": MIN_SPEEDUP_ISA,
        },
    )


def publish(rows):
    publish_table(
        ["preset", "platform", "ticks", "dormant", "batched", "exact",
         "exact s", "fast s", "nobatch s", "observed s", "obs x",
         "speedup", "batch x", "isa x", "identical"],
        [
            [
                row["preset"],
                row["platform"],
                row["ticks"],
                row["dormant_ticks"],
                row["ticks_batched"],
                row["ticks_exact"],
                f"{row['exact_s']:.3f}",
                f"{row['fast_s']:.3f}",
                f"{row['nobatch_s']:.3f}",
                f"{row['observed_s']:.3f}",
                f"{row['obs_overhead']:.2f}x",
                f"{row['speedup']:.2f}x",
                f"{row['batch_speedup']:.2f}x",
                "-" if row["isa_speedup"] is None
                else f"{row['isa_speedup']:.2f}x",
                row["identical"] and row["nobatch_identical"]
                and row["observed_identical"]
                and row["noengine_identical"],
            ]
            for row in rows
        ],
    )
    metrics = {}
    total_ticks = 0
    total_fast_s = 0.0
    for row in rows:
        preset = row["preset"]
        metrics[f"{preset}.speedup"] = row["speedup"]
        metrics[f"{preset}.batch_speedup"] = row["batch_speedup"]
        metrics[f"{preset}.exact_s"] = row["exact_s"]
        metrics[f"{preset}.fast_s"] = row["fast_s"]
        metrics[f"{preset}.nobatch_s"] = row["nobatch_s"]
        metrics[f"{preset}.observed_s"] = row["observed_s"]
        metrics[f"{preset}.obs_overhead"] = row["obs_overhead"]
        metrics[f"{preset}.events"] = row["events"]
        metrics[f"{preset}.active_ticks_per_s"] = (
            row["active_ticks"] / row["fast_s"] if row["fast_s"] > 0 else 0.0
        )
        metrics[f"{preset}.dormant_ticks_per_s"] = (
            row["dormant_ticks"] / row["fast_s"] if row["fast_s"] > 0 else 0.0
        )
        if row["isa_speedup"] is not None:
            metrics[f"{preset}.isa_speedup"] = row["isa_speedup"]
            metrics[f"{preset}.noengine_s"] = row["noengine_s"]
            metrics[f"{preset}.instr_per_s"] = row["instr_per_s"]
        total_ticks += row["ticks"]
        total_fast_s += row["fast_s"]
    metrics["throughput_ticks_per_s"] = (
        total_ticks / total_fast_s if total_fast_s > 0 else 0.0
    )
    publish_metrics(metrics)


def test_perf_core(benchmark):
    open_result()
    rows = benchmark.pedantic(run_presets, rounds=1, iterations=1)
    publish(rows)
    for row in rows:
        if row["min_speedup"] is not None:
            benchmark.extra_info[f"{row['preset']}_speedup"] = round(
                row["speedup"], 2
            )
    check_rows(rows)


def main() -> int:
    open_result()
    rows = run_presets()
    publish(rows)
    check_rows(rows)
    print("\nBENCH_core: all presets bit-identical, speedup floors met")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
