#!/usr/bin/env python3
"""End-to-end benchmark of nvpsim.

Runs each workload's ``repro`` command as a user would, in a
subprocess with tracing off, and reports medians over repeats::

    python3 benchmarks/e2e/run.py --workload f4_sweep --seed 2017 --seconds 25

``--trace 1`` (or ``--traced``) instead runs the workload in-process
through the same CLI entry point, once untraced and once with timing
wrappers on every layer, and reports the per-layer split.  Metric
names and units come from ``BENCHMARK.json``; the last line of
standard output is one JSON object ``{"correct", "attempted",
"failed", "metrics"}``.  Every run checks its outputs (see
``README.md``) and exits 1 if any check fails.

All files go to a temporary ``.e2e-*`` directory inside the checkout,
which is removed on exit; apart from Python's bytecode caches nothing
else in the checkout is written.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

from workloads import WORKLOADS, Workload, device_ticks, digest  # noqa: E402

#: Warm re-runs after each cold run: up to this many, until their total
#: time reaches half the cold run's.  A cache hit costs ~1/8 of a cold
#: sweep, so the sweeps get four or five; the uncached commands get one.
MAX_WARM = 5

#: Set-up probes before each cold run.
PROBES = 2

@dataclass
class Outcome:
    """One workload's measurements and check results."""

    metrics: Dict[str, float] = field(default_factory=dict)
    samples: Dict[str, List[float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    expected: Optional[str] = None
    digests: set = field(default_factory=set)
    reported: object = None

    def check(self, wl: Workload, code: int, results: List[Dict], detail: str = "") -> bool:
        """Count one invocation's points and check its results digest."""
        points = wl.points()
        self.attempted += points
        if code != 0:
            self.failed += points
            self.errors.append(f"exit {code}: {detail.strip()[-500:]}")
            return False
        if len(results) != points:
            self.failed += points - len(results)
            self.errors.append(f"{len(results)} of {points} results found")
            return False
        result_digest = digest(results)
        self.digests.add(result_digest)
        if len(self.digests) > 1:
            self.errors.append("results differ between repeats")
        if self.expected and result_digest != self.expected:
            self.errors.append("results digest differs from the reference")
        return True

    def record(self, wl: Workload, work: str, state: str, run: "Invocation") -> List[Dict]:
        """Check a CLI invocation; a re-run must report what the first did."""
        results = wl.results(work, state, run.stdout) if run.code == 0 else []
        if self.check(wl, run.code, results, run.stderr):
            reported = wl.reported(work, state, run.stdout)
            if self.reported is None:
                self.reported = reported
            elif reported != self.reported:
                self.errors.append("a re-run reported other results")
        return results

    @property
    def correct(self) -> bool:
        return not self.errors and self.failed == 0


def _stores(state: str) -> Dict[str, str]:
    """Hermetic runs: every store the CLI writes points into ``state``."""
    return {
        "REPRO_CACHE_DIR": os.path.join(state, "cache"),
        "REPRO_LEDGER_DIR": os.path.join(state, "ledger"),
        "NVPSIM_BENCH_RESULTS": os.path.join(state, "bench"),
        "NVPSIM_BENCH_HISTORY": os.path.join(state, "bench", "history.jsonl"),
    }


def _cli_env(state: str) -> Dict[str, str]:
    """Environment of a CLI subprocess: ``src`` on the path, stores in ``state``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.update(_stores(state))
    return env


@dataclass
class Invocation:
    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str


class Launcher:
    """Runs ``python -m repro ARGV`` through ``launcher.py``.

    Start it before importing numpy or the simulator (see
    ``launcher.py`` for why the peak RSS needs a small parent).
    """

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, argv: List[str], state: str) -> Invocation:
        out_path, err_path = os.path.join(state, "stdout"), os.path.join(state, "stderr")
        self.proc.stdin.write(json.dumps({
            "argv": [sys.executable, "-m", "repro", *argv],
            "cwd": state,
            "env": _cli_env(state),
            "stdout": out_path,
            "stderr": err_path,
        }) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        with open(out_path) as out, open(err_path) as err:
            stdout, stderr = out.read(), err.read()
        return Invocation(
            reply["code"], reply["wall_s"], reply["cpu_s"],
            reply["maxrss_kb"] / 1024.0, stdout, stderr,
        )

    def close(self) -> None:
        """Stop the launcher and any command it is running.

        An idle launcher exits once its input closes; terminating it
        while it shuts down prints a traceback, so it gets a moment.
        """
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=2)
        except subprocess.TimeoutExpired:
            self.proc.terminate()
            self.proc.wait()


def probe_setup(wl: Workload, work: str, count: int):
    """``(setup_s samples, import_s samples)`` from fresh interpreters."""
    setups, imports = [], []
    for _ in range(count):
        launched = time.time()
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), wl.name,
             str(wl.seed), "1" if wl.quick else "0", work],
            capture_output=True, text=True, cwd=work, env=_cli_env(work),
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        probe = json.loads(proc.stdout.splitlines()[-1])
        setups.append(probe["ready_unix"] - launched)
        imports.append(probe["import_s"])
    return setups, imports


def cycles(repeats: int, seconds: float):
    """Yield cycle numbers: at least ``repeats``, then while the next
    cycle (as long as the last one) would end within ``seconds``."""
    started = time.perf_counter()
    done, last = 0, 0.0
    while done < repeats or time.perf_counter() - started + last <= seconds:
        began = time.perf_counter()
        yield done
        done += 1
        last = time.perf_counter() - began


def measure(wl: Workload, work: str, seconds: float, repeats: int, out: Outcome,
            launcher: Launcher) -> None:
    """Cycles of set-up probes, a cold run on fresh state, and warm
    re-runs on the state the cold run left.

    Spreading the probes over the run, rather than taking them back to
    back, keeps one slow spell of the host from setting ``setup_s``.
    """
    setups: List[float] = []
    colds: List[Invocation] = []
    warms: List[Invocation] = []
    first: List[Dict] = []
    for _ in cycles(repeats, seconds):
        setups += probe_setup(wl, work, PROBES)[0]
        state = tempfile.mkdtemp(dir=work)
        cold = launcher.run(wl.argv(work, state), state)
        colds.append(cold)
        results = out.record(wl, work, state, cold)
        first = first or results
        warm_s = 0.0
        for _ in range(MAX_WARM):
            if warm_s >= cold.wall_s / 2:
                break
            warm = launcher.run(wl.argv(work, state), state)
            warms.append(warm)
            warm_s += warm.wall_s
            out.record(wl, work, state, warm)
        shutil.rmtree(state)
        if not out.correct:
            break
    if first and out.correct:
        # Outside the timed region.
        error = wl.check(first)
        if error:
            out.errors.append(error)
        if not wl.replay(work, first):
            out.errors.append("scalar-engine replay differs from the CLI result")
    ticks = device_ticks(first) if first else 0
    out.samples = {
        "wall_s": [run.wall_s for run in colds],
        "warm_wall_s": [run.wall_s for run in warms],
        "setup_s": setups,
        "sim_ticks_per_s": [ticks / run.wall_s for run in colds],
        "cpu_s": [run.cpu_s for run in colds],
        "peak_rss_mb": [run.peak_rss_mb for run in colds],
    }
    out.metrics = {name: statistics.median(values) for name, values in out.samples.items()}


def run_inprocess(wl: Workload, work: str, timer=None):
    """One pass of the workload's command through ``repro.cli.main``.

    Runs with ``--jobs 1`` so the wrappers see every call.  Returns
    ``(wall_s, exit code, results)``.
    """
    from layers import installed
    from repro import cli

    state = tempfile.mkdtemp(dir=work)
    stores = _stores(state)
    saved = {key: os.environ.get(key) for key in stores}
    os.environ.update(stores)
    stdout = io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout):
            with installed(timer) if timer else contextlib.nullcontext():
                start = time.perf_counter()
                try:
                    code = cli.main(wl.argv(work, state, jobs=1))
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 1
                wall = time.perf_counter() - start
        results = wl.results(work, state, stdout.getvalue()) if code == 0 else []
        return wall, code, results
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
        shutil.rmtree(state)


def measure_traced(wl: Workload, work: str, seconds: float, out: Outcome) -> None:
    """Per-layer split: untraced/traced in-process pairs, then span passes.

    The pair order alternates, so one-time costs of a first pass do not
    bias the tracing overhead one way.
    """
    from layers import NO_SWEEP, LayerTimer, layer_metrics, span_metrics

    samples: Dict[str, List[float]] = defaultdict(list)
    _, samples["cli.import_s"] = probe_setup(wl, work, 1 if wl.quick else 3)
    first: List[Dict] = []
    for pair in cycles(1, seconds):
        timer = LayerTimer()
        walls = {}
        for pass_timer in (None, timer) if pair % 2 == 0 else (timer, None):
            wall, code, results = run_inprocess(wl, work, pass_timer)
            out.check(wl, code, results)
            walls[pass_timer is timer] = wall
        if not out.correct:
            break
        first = first or results
        for name, value in layer_metrics(timer, walls[True], results).items():
            samples[name].append(value)
        samples["trace_overhead_frac"].append(walls[True] / walls[False] - 1.0)
    span = NO_SWEEP
    if wl.cache and out.correct:
        state = tempfile.mkdtemp(dir=work)
        try:
            span, results = span_metrics(wl.configs(), wl.jobs, os.path.join(state, "cache"))
        finally:
            shutil.rmtree(state)
        out.check(wl, 0, results)
    for name, value in span.items():
        samples[name].append(value)
    if first and out.correct:
        error = wl.check(first)
        if error:
            out.errors.append(error)
    out.samples = dict(samples)
    out.metrics = {name: statistics.median(values) for name, values in samples.items()}


def load_json(path: Path) -> Dict:
    with open(path) as handle:
        return json.load(handle)


def result_line(out: Outcome, units: Dict[str, str], prefix: str = "") -> Dict:
    missing = set(units) ^ set(out.metrics)
    if missing and out.correct:
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(missing)}")
    return {
        f"{prefix}{name}": {"value": out.metrics[name], "unit": unit}
        for name, unit in units.items() if name in out.metrics
    }


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default=None,
                        help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=2017,
                        help="input seed (non-negative; default: 2017)")
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="keep repeating while another repeat fits in this many seconds")
    parser.add_argument("--repeats", type=int, default=3,
                        help="at least this many cold runs (default: 3)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report the per-layer split instead")
    parser.add_argument("--traced", dest="trace", action="store_const", const=1,
                        help="same as --trace 1")
    parser.add_argument("--quick", action="store_true",
                        help="reduced sizes, one repeat (smoke test)")
    parser.add_argument("--out", default=None, metavar="FILE.jsonl",
                        help="append each workload's samples here (for compare.py)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.quick:
        args.repeats = 1
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no nvpsim sources at {SRC}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    launcher = None if args.trace else Launcher()
    sys.path.insert(0, str(SRC))
    import repro.cli  # noqa: F401  (warm imports before any timing)

    bench = load_json(ROOT / "BENCHMARK.json")
    key = "per_layer" if args.trace else "end_to_end"
    units = {metric["name"]: metric["unit"] for metric in bench[key]}
    reference = load_json(HERE / "reference.json")
    names = [args.workload] if args.workload else list(WORKLOADS)
    work = tempfile.mkdtemp(prefix=".e2e-", dir=ROOT)
    lines = []
    try:
        for name in names:
            wl = WORKLOADS[name](args.seed, args.quick)
            wl.prepare(work)
            out = Outcome()
            if args.seed == reference["seed"] and not args.quick:
                out.expected = reference["digests"][name]
            try:
                if args.trace:
                    measure_traced(wl, work, args.seconds, out)
                else:
                    measure(wl, work, args.seconds, args.repeats, out, launcher)
            except Exception:
                # One broken workload is reported, not a traceback.
                out.errors.append(traceback.format_exc().strip())
            for error in out.errors:
                print(f"{name}: FAILED: {error}")
            for metric, values in out.samples.items():
                print(f"{name:14s} {metric:34s} {out.metrics[metric]:.6g} "
                      f"(n={len(values)})")
            if args.out:
                with open(args.out, "a") as handle:
                    handle.write(json.dumps({
                        "workload": name, "seed": args.seed, "trace": args.trace,
                        "quick": args.quick, "correct": out.correct,
                        "digest": min(out.digests, default=None),
                        "samples": out.samples,
                    }) + "\n")
            lines.append((name, out))
    finally:
        if launcher is not None:
            launcher.close()
        shutil.rmtree(work, ignore_errors=True)
    correct = all(out.correct for _, out in lines)
    metrics: Dict = {}
    for name, out in lines:
        metrics.update(result_line(out, units, "" if args.workload else f"{name}/"))
    print(json.dumps({
        "correct": correct,
        "attempted": sum(out.attempted for _, out in lines),
        "failed": sum(out.failed for _, out in lines),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
