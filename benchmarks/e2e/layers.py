"""Per-layer timing for the traced pass, measured from outside ``src/``.

:func:`installed` swaps timing wrappers onto the public entry points of
each nvpsim layer and puts the original attributes back when it exits.
A wrapper records calls, inclusive time and self time (inclusive time
minus the wrapped calls made inside it), plus a unit count where the
call reports one (ticks consumed, rows charged).  Time spent outside
every wrapper is the pass's unattributed residual.

:func:`span_metrics` needs no wrappers: it runs a sweep through
``SweepRunner`` with a ``SpanTracer`` and splits the pool and cache
time out of the existing span hierarchy.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional


@dataclass
class LayerStat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    units: int = 0


class LayerTimer:
    """Accumulates per-layer call counts and times while installed."""

    def __init__(self) -> None:
        self.stats: Dict[str, LayerStat] = defaultdict(LayerStat)
        #: Time inside outermost wrapped calls.
        self.top_level_s = 0.0
        #: Block engines and fleet kernels constructed while installed.
        self.engines: List = []
        self.kernels: List = []
        self._children: List[float] = []

    def wrap(self, layer: str, fn: Callable, units: Optional[Callable] = None) -> Callable:
        """``fn`` timed under ``layer``; ``units(result, args)`` counts work."""
        stat = self.stats[layer]
        children = self._children

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            children.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                inner = children.pop()
                if children:
                    children[-1] += elapsed
                else:
                    self.top_level_s += elapsed
                stat.calls += 1
                stat.total_s += elapsed
                stat.self_s += elapsed - inner
            if units is not None:
                stat.units += units(result, args)
            return result

        return timed


def _run_ticks(runs, args) -> int:
    return sum(count for _, count in runs) if runs else 0


def _targets(timer: LayerTimer):
    """``(owner, attribute, layer, units)`` for every wrapped entry point.

    Module-level functions are wrapped under every name that binds
    them, since ``from x import f`` copies the binding.
    """
    import repro.fleet
    import repro.obs
    from repro import cli
    from repro.baselines.checkpoint import CheckpointPlatform
    from repro.baselines.oracle import OraclePlatform
    from repro.baselines.waitcompute import WaitComputePlatform
    from repro.core.nvp import NVPPlatform
    from repro.exp import cache, runner, spec
    from repro.fleet import kernel, soa
    from repro.fleet import spec as fleet_spec
    from repro.harvest.rectifier import Rectifier
    from repro.isa.blockengine import BlockEngine
    from repro.obs.ledger import RunLedger
    from repro.obs.synth import FastPathEventSynthesizer
    from repro.storage.capacitor import Capacitor
    from repro.system import simulator

    def keep(instances: List) -> Callable:
        def built(result, args) -> int:
            instances.append(args[0])
            return 0

        return built

    targets = []
    for platform in (NVPPlatform, WaitComputePlatform, CheckpointPlatform, OraclePlatform):
        targets += [
            (platform, "fast_forward", "system.fastpath", _run_ticks),
            (platform, "exact_batch", "system.exactkernel", _run_ticks),
            (platform, "tick", "system.simulator.tick", None),
        ]
    for module in (runner, kernel):
        targets += [
            (module, "build_trace", "harvest.build_trace", None),
            (module, "build_workload", "exp.runner.build", None),
            (module, "build_platform", "exp.runner.build", None),
        ]
    for module in (simulator, kernel):
        targets.append((module, "assemble_result", "system.simulator.assemble", None))
    for name in ("integrate", "flush_outages", "finish"):
        targets.append((FastPathEventSynthesizer, name, "obs.synth", None))
    targets += [
        (repro.obs, "write_events_jsonl", "obs.export", lambda count, args: count),
        (repro.obs, "write_chrome_trace", "obs.export", None),
        (cli, "_make_trace", "harvest.build_trace", None),
        (spec.ExperimentSpec, "expand", "exp.spec.expand", None),
        (fleet_spec.FleetSpec, "devices", "exp.spec.expand", None),
        (runner.SweepRunner, "run", "exp.runner.run", None),
        (cache.ResultCache, "get", "exp.cache.get", None),
        (cache.ResultCache, "put", "exp.cache.put", None),
        (Rectifier, "output_power_array", "harvest.rectify", None),
        (Capacitor, "charge_many", "storage.charge_many", lambda out, args: out[0]),
        (simulator.SystemSimulator, "run", "system.simulator.run", None),
        (kernel.FleetKernel, "__init__", "fleet.kernel.build", keep(timer.kernels)),
        (kernel.FleetKernel, "run", "fleet.kernel.run", None),
        (soa.FleetArrays, "charge_tick", "fleet.soa.charge_tick",
         lambda out, args: len(args[1])),
        (soa.FleetArrays, "gather_power", "fleet.soa.gather", None),
        (repro.fleet, "write_fleet_results", "fleet.report", None),
        (RunLedger, "append", "obs.ledger.append", None),
        (BlockEngine, "__init__", "isa.blockengine.compile", keep(timer.engines)),
    ]
    return targets


_MISSING = object()


@contextmanager
def installed(timer: LayerTimer):
    """Wrap every layer entry point for the ``with`` block.

    The original attributes are restored in a ``finally`` block, so an
    exception inside the pass leaves the program as it was.
    """
    saved = []
    try:
        for owner, attr, layer, units in _targets(timer):
            saved.append((owner, attr, vars(owner).get(attr, _MISSING)))
            setattr(owner, attr, timer.wrap(layer, getattr(owner, attr), units))
        yield timer
    finally:
        for owner, attr, original in reversed(saved):
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(timer: LayerTimer, wall_s: float, results: List[Dict]) -> Dict[str, float]:
    """The per-layer split of one traced pass of ``wall_s`` seconds.

    Times are given as shares of the traced wall time (``*_frac``), so a
    layer a workload never enters reads 0 rather than a zero time; the
    absolute time of any layer is its share times ``traced_wall_s``.
    """
    s = timer.stats

    def share(layer: str, part: str = "total_s") -> float:
        return getattr(s[layer], part) / wall_s

    fast, batch, tick = s["system.fastpath"], s["system.exactkernel"], s["system.simulator.tick"]
    charge, soa_tick = s["storage.charge_many"], s["fleet.soa.charge_tick"]
    instructions = (
        sum(result["total_executed"] for result in results) if timer.engines else 0
    )
    counts = defaultdict(int)
    for engine in timer.engines:
        for key, value in engine.profile_counts().items():
            counts[key] += value
    return {
        "traced_wall_s": wall_s,
        "residual_frac": (wall_s - timer.top_level_s) / wall_s,
        "exp.spec.expand_frac": share("exp.spec.expand"),
        "exp.runner.self_frac": share("exp.runner.run", part="self_s"),
        "exp.runner.build_frac": share("exp.runner.build"),
        "harvest.build_trace_frac": share("harvest.build_trace"),
        "harvest.build_trace_calls": s["harvest.build_trace"].calls,
        "harvest.rectify_frac": share("harvest.rectify"),
        "system.fastpath.frac": share("system.fastpath"),
        "system.fastpath.calls": fast.calls,
        "system.fastpath.ticks": fast.units,
        "system.fastpath.ticks_per_call": _rate(fast.units, fast.calls),
        "system.fastpath.calls_per_s": _rate(fast.calls, fast.total_s),
        "storage.charge_many_frac": share("storage.charge_many"),
        "storage.charge_many_calls": charge.calls,
        "storage.ticks_per_s": _rate(charge.units, charge.total_s),
        "system.exactkernel.frac": share("system.exactkernel"),
        "system.exactkernel.calls": batch.calls,
        "system.exactkernel.ticks": batch.units,
        "system.exactkernel.ticks_per_s": _rate(batch.units, batch.total_s),
        "system.simulator.run_frac": share("system.simulator.run"),
        "system.simulator.loop_self_frac": share("system.simulator.run", part="self_s"),
        "system.simulator.tick_frac": share("system.simulator.tick"),
        "system.simulator.tick_calls": tick.calls,
        "system.simulator.ticks_per_s": _rate(tick.calls, tick.total_s),
        "system.simulator.assemble_frac": share("system.simulator.assemble"),
        "isa.blockengine.instructions": instructions,
        "isa.blockengine.instr_per_s": _rate(instructions, batch.total_s + tick.total_s),
        "isa.blockengine.blocks_compiled": counts["blocks"],
        "isa.blockengine.fused_runs": counts["fused"],
        "isa.blockengine.stepped_runs": counts["stepped"],
        "fleet.kernel.build_frac": share("fleet.kernel.build"),
        "fleet.kernel.run_frac": share("fleet.kernel.run"),
        "fleet.kernel.loop_self_frac": share("fleet.kernel.run", part="self_s"),
        "fleet.kernel.lockstep_ticks": sum(k.ticks_advanced for k in timer.kernels),
        "fleet.kernel.batched_ticks": sum(k.ticks_batched for k in timer.kernels),
        "fleet.soa.charge_tick_frac": share("fleet.soa.charge_tick"),
        "fleet.soa.gather_frac": share("fleet.soa.gather"),
        "fleet.soa.row_ticks_per_s": _rate(soa_tick.units, soa_tick.total_s),
        "fleet.report.write_frac": share("fleet.report"),
        "obs.synth.frac": share("obs.synth"),
        "obs.export.frac": share("obs.export"),
        "obs.export.events": s["obs.export"].units,
        "obs.ledger.append_frac": share("obs.ledger.append"),
    }


def span_metrics(configs: List[Dict], jobs: int, cache_root: str):
    """Pool and cache split of a cold then a warm sweep, from spans.

    Returns ``(metrics, cold results)``.  Pool overhead is the sweep
    span minus the busiest worker's build+simulate time; worker busy
    is all workers' build+simulate time over workers x sweep span.
    """
    from repro.exp import ResultCache, SweepRunner
    from repro.obs import SpanTracer

    def sweep(tracer):
        outcome = SweepRunner(
            jobs=jobs, cache=ResultCache(cache_root), tracer=tracer
        ).run(configs)
        return outcome, tracer.named("sweep")[0].duration_s

    cold, warm = SpanTracer(), SpanTracer()
    outcome, cold_s = sweep(cold)
    _, warm_s = sweep(warm)
    busy: Dict[str, float] = defaultdict(float)
    for span in cold.spans:
        if span.name in ("build", "simulate"):
            busy[span.tid] += span.duration_s
    gets = warm.named("cache.get")
    metrics = {
        "exp.runner.pool_overhead_frac": (cold_s - max(busy.values())) / cold_s,
        "exp.runner.worker_busy_frac": sum(busy.values()) / (len(busy) * cold_s),
        "exp.cache.put_frac": sum(span.duration_s for span in cold.named("cache.put")) / cold_s,
        "exp.cache.get_frac": sum(span.duration_s for span in gets) / warm_s,
        "exp.cache.hit_frac": sum(bool(span.args.get("hit")) for span in gets) / len(gets),
    }
    return metrics, [record.result for record in outcome.records]


#: Span-pass metrics of a workload that runs no sweep.
NO_SWEEP = dict.fromkeys(
    (
        "exp.runner.pool_overhead_frac",
        "exp.runner.worker_busy_frac",
        "exp.cache.put_frac",
        "exp.cache.get_frac",
        "exp.cache.hit_frac",
    ),
    0.0,
)
