"""Fleet subsystem: batched lockstep simulation of device populations.

The fleet engine advances N heterogeneous devices — each with its own
platform preset, capacitor sizing, RNG seed, and trace offset —
through simulated time together.  Dormant devices (off/charge/done)
live in a struct-of-arrays layout and bulk-advance through one
charge step per tick (the native row kernel); active devices tick
exactly.  Every
device's :class:`~repro.system.result.SimulationResult` is bit-for-bit
identical to running the single-device engine on its sub-trace.

See ``docs/fleet.md`` for the layout and equivalence guarantees.
"""

from repro.fleet.kernel import (
    FleetKernel,
    PowerSegments,
    build_power_segments,
    replay_device,
    run_fleet,
)
from repro.fleet.report import (
    fleet_payload,
    fleet_summary,
    render_fleet_summary,
    write_fleet_results,
)
from repro.fleet.soa import FleetArrays
from repro.fleet.spec import (
    DEVICE_OFFSET_KEY,
    FleetSpec,
    device_config_hash,
    resolve_device_config,
)
from repro.fleet.telemetry import (
    FleetTelemetry,
    correlation_report,
    render_correlation,
)

__all__ = [
    "DEVICE_OFFSET_KEY",
    "FleetArrays",
    "FleetKernel",
    "FleetSpec",
    "FleetTelemetry",
    "PowerSegments",
    "build_power_segments",
    "correlation_report",
    "device_config_hash",
    "fleet_payload",
    "fleet_summary",
    "render_correlation",
    "render_fleet_summary",
    "replay_device",
    "resolve_device_config",
    "run_fleet",
    "write_fleet_results",
]
