"""Golden outputs and probe counts of both engines' walks.

The equivalence suites compare the engines with one another, so a
change to how both step a device through its ticks could move them
together.  These tests pin them to recorded numbers instead:

* a 16-device mixed fleet's mid-run telemetry
  (``tests/golden/fleet_telemetry.jsonl``) and the order its devices
  finalize in, byte for byte;
* how often that fleet, and each engine-choice case of CI's
  ``observe-smoke`` job, calls the platforms' bulk paths and scalar
  ``tick()``, and how many ticks each bulk path runs.

A probe that misses changes no result, so only the counts see a walk
that probes more often than before.
"""

import os

import pytest

from repro import cli
from repro.baselines.checkpoint import CheckpointPlatform
from repro.baselines.oracle import OraclePlatform
from repro.baselines.waitcompute import WaitComputePlatform
from repro.core.nvp import NVPPlatform
from repro.fleet import FleetArrays, FleetKernel, FleetSpec, FleetTelemetry
from repro.obs import events as ev
from repro.obs.events import EventBus

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")

FLEET_SPEC = {
    "name": "golden_fleet",
    "base": {
        "source": "wristwatch", "duration_s": 1.0, "seed": 7,
        "mean_uw": 30, "stop_when_finished": False,
    },
    "axes": {
        "platform": ["nvp", "checkpoint", "wait", "oracle"],
        "kernel": [None, "crc"],
    },
    "replicas": 2,
    "stagger_s": 0.1,
}

#: ``(index, ticks)`` of each ``fleet.device`` event, in emit order.
FLEET_DEVICE_ORDER = [
    (14, 10000), (15, 9000), (1, 9000), (3, 9000), (5, 9000),
    (7, 9000), (9, 9000), (11, 9000), (13, 9000), (0, 10000),
    (2, 10000), (4, 10000), (6, 10000), (8, 10000), (10, 10000),
    (12, 10000),
]

#: CI's observe-smoke engine-choice cases (``simulate --duration 3``):
#: ``(calls, ticks)`` per bulk path and the scalar ``tick()`` calls.
SIMULATE_COUNTS = {
    "--platform nvp --kernel crc": {
        "fast_forward": (102, 7664), "exact_batch": (51, 407), "tick": 101,
    },
    "--platform wait --kernel crc": {
        "fast_forward": (15, 20864), "exact_batch": (10, 0), "tick": 464,
    },
    "--platform checkpoint --kernel fir": {
        "fast_forward": (110, 25864), "exact_batch": (55, 1144),
        "tick": 109,
    },
    "--platform oracle --kernel matmul": {
        "fast_forward": (1, 0), "exact_batch": (1, 394), "tick": 0,
    },
    "--platform checkpoint --sample-stride 37": {
        "fast_forward": (139, 28475), "exact_batch": (69, 1387),
        "tick": 138,
    },
    "--platform oracle --source rf": {
        "fast_forward": (1, 0), "exact_batch": (1, 30000), "tick": 0,
    },
}


@pytest.fixture
def probes(monkeypatch):
    """Count each platform's bulk-path and ``tick()`` calls, and the
    ticks the bulk paths run, as the benchmark's traced pass does."""
    counts = {"fast_forward": [0, 0], "exact_batch": [0, 0], "tick": [0, 0]}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            counts[name][0] += 1
            if name != "tick" and out:
                counts[name][1] += sum(ticks for _, ticks in out)
            return out

        return wrapper

    for platform in (NVPPlatform, WaitComputePlatform, CheckpointPlatform,
                     OraclePlatform):
        for name in counts:
            monkeypatch.setattr(
                platform, name, counted(name, getattr(platform, name))
            )
    return counts


def run_golden_fleet(out, monkeypatch):
    """Run the golden fleet with telemetry into ``out``; returns the
    kernel, the ``fleet.device`` order and the rows that rejoined the
    exact path with no dormant tick pending."""
    charge_tick = FleetArrays.charge_tick
    zero_pending = []

    def counted(arrays, power):
        rows = charge_tick(arrays, power)
        if rows is not None:
            zero_pending.extend(
                int(row) for row in rows if arrays.pending[row] == 0
            )
        return rows

    monkeypatch.setattr(FleetArrays, "charge_tick", counted)
    bus = EventBus()
    order = []
    bus.subscribe(
        lambda event: order.append(
            (event.data["index"], event.data["ticks"])
        ),
        names=(ev.FLEET_DEVICE,),
    )
    kernel = FleetKernel(
        FleetSpec.from_dict(FLEET_SPEC).devices(), bus=bus,
        telemetry=FleetTelemetry(every_s=0.05, out=str(out)),
    )
    kernel.run()
    return kernel, order, zero_pending


def test_fleet_telemetry_matches_golden(tmp_path, monkeypatch):
    out = tmp_path / "telemetry.jsonl"
    _, order, _ = run_golden_fleet(out, monkeypatch)
    with open(os.path.join(GOLDEN, "fleet_telemetry.jsonl"), "rb") as handle:
        golden = handle.read()
    assert out.read_bytes() == golden
    assert order == FLEET_DEVICE_ORDER


def test_fleet_probe_counts(tmp_path, monkeypatch, probes):
    kernel, _, zero_pending = run_golden_fleet(
        tmp_path / "telemetry.jsonl", monkeypatch
    )
    # Two rows wake on their first parked tick: the case where the
    # exact rejoin tick must not probe although nothing was flushed.
    assert len(zero_pending) == 2
    assert probes == {
        "fast_forward": [0, 0],
        "exact_batch": [538, 25202],
        "tick": [1598, 0],
    }
    assert kernel.ticks_batched == 25202
    assert kernel.ticks_advanced == 10000


@pytest.mark.parametrize("flags", sorted(SIMULATE_COUNTS))
def test_simulate_probe_counts(flags, tmp_path, capsys, probes):
    events = str(tmp_path / "events.jsonl")
    assert cli.main([
        "simulate", "--duration", "3", *flags.split(), "--events", events,
        "--json",
    ]) == 0
    capsys.readouterr()
    expected = SIMULATE_COUNTS[flags]
    assert probes == {
        "fast_forward": list(expected["fast_forward"]),
        "exact_batch": list(expected["exact_batch"]),
        "tick": [expected["tick"], 0],
    }
