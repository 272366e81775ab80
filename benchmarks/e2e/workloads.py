"""The four end-to-end workloads: generated inputs, CLI commands, checks.

Each workload turns the benchmark seed into input files, names the
``repro`` command a user would run on them, reads the command's
results back for the correctness checks, and knows how to build its
first point (the set-up probe) and replay its cheapest point on the
scalar engine.  Only the standard library is imported at module level:
the set-up probe imports this module before it times ``import
repro.cli``.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, List, Optional

def digest(results: List[Dict]) -> str:
    """sha256 over the canonical JSON of a list of result dicts."""
    text = json.dumps(results, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def device_ticks(results: List[Dict]) -> int:
    """Simulated device-ticks the results cover."""
    from repro.harvest.traces import DEFAULT_DT_S

    return sum(round(result["duration_s"] / DEFAULT_DT_S) for result in results)


def _scalar_run(trace, platform, stop_when_finished: bool) -> Dict:
    """One simulation on the scalar engine (no fast-forward, no batch)."""
    from repro.system.presets import standard_rectifier
    from repro.system.simulator import SystemSimulator

    return SystemSimulator(
        trace,
        platform,
        rectifier=standard_rectifier(),
        stop_when_finished=stop_when_finished,
        use_fast_forward=False,
        use_exact_batch=False,
    ).run().to_dict()


class Workload:
    """One benchmark workload at one seed.

    Attributes:
        name: workload name (as in ``BENCHMARK.json``).
        jobs: worker processes the CLI command uses.
        cache: whether a re-run reads the previous run's result cache.
    """

    name = ""
    jobs = 1
    cache = False

    def __init__(self, seed: int, quick: bool = False) -> None:
        self.seed = seed
        self.quick = quick

    def spec_path(self, work: str) -> str:
        return os.path.join(work, f"{self.name}.json")

    def spec(self) -> Dict:
        """The generated spec file contents."""
        raise NotImplementedError

    def prepare(self, work: str) -> None:
        """Write the generated inputs into ``work``."""
        with open(self.spec_path(work), "w") as handle:
            json.dump(self.spec(), handle, indent=1)

    def argv(self, work: str, state: str, jobs: Optional[int] = None) -> List[str]:
        """``repro`` arguments; outputs land under ``state``."""
        raise NotImplementedError

    def points(self) -> int:
        """Simulations one invocation performs."""
        raise NotImplementedError

    def results(self, work: str, state: str, stdout: str) -> List[Dict]:
        """The invocation's results, in input order (missing ones dropped)."""
        raise NotImplementedError

    def reported(self, work: str, state: str, stdout: str) -> object:
        """What an invocation showed beyond its results; a warm re-run
        must show the same.  ``None`` where the results are all it shows.
        """
        return None

    def build_first(self, work: str) -> None:
        """Everything the command does before its first simulated tick."""
        raise NotImplementedError

    def replay(self, work: str, results: List[Dict]) -> bool:
        """Replay the cheapest point on the scalar engine; True if identical."""
        raise NotImplementedError

    def check(self, results: List[Dict]) -> Optional[str]:
        """A workload-specific shape check; returns an error or ``None``."""
        return None


class SweepWorkload(Workload):
    """A ``repro sweep`` over a generated experiment spec."""

    cache = True

    def configs(self) -> List[Dict]:
        from repro.exp import ExperimentSpec

        return ExperimentSpec.from_dict(self.spec()).expand()

    def argv(self, work, state, jobs=None):
        return [
            "sweep", self.spec_path(work), "--jobs", str(jobs or self.jobs),
            "--quiet", "--results-dir", os.path.join(state, "results"),
        ]

    def points(self):
        return len(self.configs())

    def results(self, work, state, stdout):
        from repro.exp import ExperimentSpec, ResultCache

        cache = ResultCache(os.path.join(state, "cache"))
        entries = [cache.get(key) for key in ExperimentSpec.from_dict(self.spec()).hashes()]
        return [entry["result"] for entry in entries if entry and "result" in entry]

    def reported(self, work, state, stdout):
        # The results table minus the status column, which reads "ok"
        # on a cold run and "cached" on a warm one.
        path = os.path.join(state, "results", f"{self.name}.json")
        with open(path) as handle:
            rows = json.load(handle)["tables"][0]["rows"]
        return [row[:1] + row[2:] for row in rows]

    def build_first(self, work):
        from repro.exp import ExperimentSpec
        from repro.exp.runner import build_platform, build_trace, build_workload

        config = ExperimentSpec.from_file(self.spec_path(work)).expand()[0]
        build_trace(config)
        build_platform(config, build_workload(config))

    def is_cheapest(self, config: Dict) -> bool:
        raise NotImplementedError

    def replay(self, work, results):
        from repro.exp.runner import build_platform, build_trace, build_workload

        for index, config in enumerate(self.configs()):
            if self.is_cheapest(config):
                platform = build_platform(config, build_workload(config))
                replayed = _scalar_run(
                    build_trace(config), platform, config["stop_when_finished"]
                )
                return replayed == results[index]
        raise ValueError(f"{self.name}: no replay point")


class F4Sweep(SweepWorkload):
    name = "f4_sweep"
    jobs = 2

    def spec(self):
        return {
            "name": self.name,
            "description": "F4: forward progress per platform per profile",
            "base": {
                "source": "profile",
                "duration_s": 2.0 if self.quick else 10.0,
                "seed": self.seed,
            },
            "axes": {
                "platform": ["nvp", "wait", "checkpoint", "oracle"],
                "profile_index": [0, 1] if self.quick else [0, 1, 2, 3, 4],
            },
        }

    def is_cheapest(self, config):
        return config["platform"] == "oracle"

    def check(self, results):
        ratio = nvp_vs_wait(self.configs(), results)
        print(f"f4      : NVP / wait-compute = {ratio:.2f}x (band 1.8-8.0)")
        if not self.quick and not 1.8 <= ratio <= 8.0:
            return f"NVP / wait-compute ratio {ratio:.3f} outside 1.8-8.0"
        return None


def nvp_vs_wait(configs: List[Dict], results: List[Dict]) -> float:
    """Mean forward progress of the NVP over that of wait-and-compute."""
    def mean(platform: str) -> float:
        values = [
            result["forward_progress"]
            for config, result in zip(configs, results)
            if config["platform"] == platform
        ]
        return sum(values) / len(values)

    wait = mean("wait")
    return mean("nvp") / wait if wait else float("inf")


class IsaSweep(SweepWorkload):
    name = "isa_sweep"

    #: ``(source, mean_uw, duration_s)``.  Strong light keeps the
    #: kernels in the batched block engine; the thermal trace adds a
    #: steady share of scalar ticks.  Default solar light was not used:
    #: its rare occlusions decide how many scalar ticks a run takes, so
    #: the run time swung by 2x between seeds.
    SUPPLIES = (("solar", 5000.0, 0.5), ("thermal", None, 1.0))

    def spec(self):
        kernels = ["fir", "crc"] if self.quick else ["fir", "crc", "matmul", "dft"]
        scale = 0.2 if self.quick else 1.0
        points = [
            (platform, kernel, supply)
            for supply in self.SUPPLIES
            for platform in ("nvp", "checkpoint")
            for kernel in kernels
        ]
        return {
            "name": self.name,
            "description": "compiled NV16 kernels under strong and weak supplies",
            "mode": "zip",
            "base": {"seed": self.seed, "frames": 100000, "stop_when_finished": False},
            "axes": {
                "platform": [p for p, _, _ in points],
                "kernel": [k for _, k, _ in points],
                "source": [s[0] for _, _, s in points],
                "mean_uw": [s[1] for _, _, s in points],
                "duration_s": [s[2] * scale for _, _, s in points],
                "label": [f"{p}/{k}/{s[0]}" for p, k, s in points],
            },
        }

    def is_cheapest(self, config):
        return config["source"] == "thermal" and config["platform"] == "checkpoint"


class FleetDormant(Workload):
    """``repro fleet run --no-cache`` on a mostly dormant NVP fleet."""

    name = "fleet_dormant"

    #: Independent traces (sub-seeds of the seed).  Forty keep the
    #: fleet's amount of active work steady from one seed to the next;
    #: one shared trace made it swing by 3x.
    TRACES = 40

    def spec(self):
        traces = 4 if self.quick else self.TRACES
        return {
            "name": self.name,
            "description": "mostly dormant wristwatch NVP fleet",
            "base": {
                "platform": "nvp",
                "source": "wristwatch",
                "duration_s": 0.2 if self.quick else 0.5,
                "mean_uw": 3.0,
            },
            "axes": {"seed": [self.seed * 64 + k for k in range(traces)]},
            "replicas": 10 if self.quick else 50,
            "stagger_s": 1e-3 if self.quick else 5e-3,
        }

    def configs(self) -> List[Dict]:
        from repro.fleet import FleetSpec

        return FleetSpec.from_dict(self.spec()).devices()

    def argv(self, work, state, jobs=None):
        return [
            "fleet", "run", self.spec_path(work), "--no-cache", "--quiet",
            "--results-dir", os.path.join(state, "results"),
        ]

    def points(self):
        return len(self.configs())

    def results(self, work, state, stdout):
        path = os.path.join(state, "results", f"{self.name}.json")
        try:
            with open(path) as handle:
                devices = json.load(handle)["fleet"]["devices"]
        except (OSError, ValueError, KeyError):
            return []
        return [device["result"] for device in devices if device["result"]]

    def build_first(self, work):
        from repro.fleet import FleetSpec
        from repro.fleet.kernel import FleetKernel

        FleetKernel(FleetSpec.from_file(self.spec_path(work)).devices())

    def replay(self, work, results):
        from repro.fleet import replay_device

        result, _ = replay_device(
            self.configs()[0], use_fast_forward=False, use_exact_batch=False
        )
        return result.to_dict() == results[0]


class ObservedRun(Workload):
    """``repro simulate`` with the event-log and Chrome-trace exporters."""

    name = "observed_run"

    def prepare(self, work):
        """Nothing to write: the command takes its inputs as flags."""

    def _simulate_args(self) -> List[str]:
        return [
            "simulate", "--platform", "nvp", "--source", "wristwatch",
            "--duration", "2" if self.quick else "40", "--seed", str(self.seed),
        ]

    def argv(self, work, state, jobs=None):
        return self._simulate_args() + [
            "--json",
            "--events", os.path.join(state, "events.jsonl"),
            "--trace", os.path.join(state, "trace.json"),
        ]

    def points(self):
        return 1

    def results(self, work, state, stdout):
        try:
            return [json.loads(stdout)]
        except ValueError:
            return []

    @staticmethod
    def _inputs(argv: List[str]):
        """``(args, trace, platform)`` built by the CLI's own helpers."""
        from repro import cli

        args = cli.build_parser().parse_args(argv)
        workload, _ = cli._make_workload(args)
        platform = cli.PLATFORM_BUILDERS[args.platform](workload)
        return args, cli._make_trace(args), platform

    def build_first(self, work):
        from repro import cli

        args, _, _ = self._inputs(self.argv(work, work))
        cli._make_observability(args)

    def replay(self, work, results):
        # Unobserved and scalar: also checks that observing the run
        # changed no result bit.
        _, trace, platform = self._inputs(self._simulate_args())
        return _scalar_run(trace, platform, stop_when_finished=False) == results[0]


WORKLOADS = {cls.name: cls for cls in (F4Sweep, IsaSweep, FleetDormant, ObservedRun)}
