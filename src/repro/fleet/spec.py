"""Fleet specification: a population of heterogeneous devices.

A :class:`FleetSpec` describes N devices the fleet kernel advances in
lockstep.  It is an :class:`~repro.exp.spec.ExperimentSpec` whose
points are replicated, so it shares the sweep's spec format, checks
and config vocabulary — every device config is a
:func:`repro.exp.spec.resolve_config` config — and adds exactly one
fleet-only config key, ``trace_offset_s``: the device's start offset
(seconds) into its trace, so a fleet can stagger many devices along
one long harvesting recording.

Two deliberate hashing decisions keep fleet points cache-compatible
with ordinary sweeps:

* ``trace_offset_s`` is **not** added to
  :data:`repro.exp.spec.CONFIG_DEFAULTS` — that would change the
  canonical form (and therefore the content hash) of every existing
  cached sweep point;
* a device at offset ``0.0`` hashes identically to the plain sweep
  config (:func:`device_config_hash` strips the zero offset).  This is
  sound because fleet results are bit-for-bit identical to the
  single-device engine (property-tested in
  ``tests/test_fastpath_equivalence.py``), so the cache entries are
  interchangeable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional

from repro.exp.spec import ExperimentSpec, config_hash, resolve_config

#: The one config key that exists only for fleet devices.
DEVICE_OFFSET_KEY = "trace_offset_s"


def resolve_device_config(config: Mapping) -> Dict:
    """Resolve a device config: sweep defaults plus ``trace_offset_s``.

    Returns a fully-resolved config dict whose non-fleet keys went
    through :func:`repro.exp.spec.resolve_config` (defaults applied,
    unknown keys rejected) and whose ``trace_offset_s`` is a validated
    float.  The offset is checked against the configured duration; the
    exact end-of-trace bound is enforced later by
    :meth:`repro.harvest.traces.PowerTrace.offset_ticks`.
    """
    raw = dict(config)
    offset = raw.pop(DEVICE_OFFSET_KEY, 0.0)
    resolved = resolve_config(raw)
    offset = float(offset)
    if not math.isfinite(offset):
        raise ValueError("trace_offset_s must be finite")
    if offset < 0:
        raise ValueError("trace_offset_s cannot be negative")
    if offset >= resolved["duration_s"]:
        raise ValueError(
            f"trace_offset_s ({offset}s) is at/past the trace duration "
            f"({resolved['duration_s']}s)"
        )
    resolved[DEVICE_OFFSET_KEY] = offset
    return resolved


def device_config_hash(resolved: Mapping) -> str:
    """Content hash of a resolved device config.

    A zero offset is stripped before hashing so offset-0 fleet devices
    share cache entries with ordinary sweep points (their results are
    bit-identical, so recall is exact either way).
    """
    hashable = dict(resolved)
    if hashable.get(DEVICE_OFFSET_KEY, 0.0) == 0.0:
        hashable.pop(DEVICE_OFFSET_KEY, None)
    return config_hash(hashable)


@dataclass(frozen=True)
class FleetSpec(ExperimentSpec):
    """An experiment spec whose every point is replicated into devices.

    Name, axes, base, mode and description mean what they mean for an
    :class:`~repro.exp.spec.ExperimentSpec`, except that only the
    ``grid`` and ``zip`` modes apply; ``trace_offset_s`` is a valid
    axis.  The fleet adds:

    Attributes:
        replicas: statistical copies of every expanded point; replica
            ``r`` gets ``platform_seed + r`` and (optionally) a trace
            offset staggered by ``r * stagger_s``.
        stagger_s: per-replica trace-offset increment, seconds.
        telemetry_every_s: default telemetry sampling cadence for this
            fleet (simulated seconds).  ``None`` leaves the cadence to
            the CLI/telemetry defaults; the ``--telemetry-every`` flag
            overrides it.
    """

    modes = ("grid", "zip")

    replicas: int = 1
    stagger_s: float = 0.0
    telemetry_every_s: Optional[float] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.replicas < 1:
            raise ValueError("replicas must be >= 1")
        # Written so NaN fails too: every comparison with NaN is False.
        if not 0 <= self.stagger_s < math.inf:
            raise ValueError("stagger_s must be finite and non-negative")
        every_s = self.telemetry_every_s
        if every_s is not None and not 0 < every_s < math.inf:
            raise ValueError("telemetry_every_s must be positive and finite")

    def devices(self) -> List[Dict]:
        """Every device's fully-resolved config, in fleet order.

        Fleet order is point order (last axis fastest) with replicas
        innermost.  Replica ``r`` bumps ``platform_seed`` by ``r`` —
        deterministic per-device RNG streams — and, when ``stagger_s``
        is set, shifts the trace offset by ``r * stagger_s``.
        """
        configs: List[Dict] = []
        for raw in self.raw_configs():
            for replica in range(self.replicas):
                device = dict(raw)
                if self.replicas > 1:
                    device["platform_seed"] = (
                        int(device.get("platform_seed") or 0) + replica
                    )
                    if self.stagger_s:
                        device[DEVICE_OFFSET_KEY] = (
                            float(device.get(DEVICE_OFFSET_KEY, 0.0))
                            + replica * self.stagger_s
                        )
                    base_label = device.get("label")
                    device["label"] = (
                        f"{base_label}#r{replica}"
                        if base_label else f"r{replica}"
                    )
                configs.append(resolve_device_config(device))
        return configs

    @classmethod
    def from_dict(cls, data: Mapping) -> "FleetSpec":
        """:meth:`ExperimentSpec.from_dict`, casting the fleet keys.

        A ``null`` fleet key means its default.
        """
        if isinstance(data, Mapping):
            data = dict(data)
            for key, kind in (("replicas", int), ("stagger_s", float),
                              ("telemetry_every_s", float)):
                value = data.pop(key, None)
                if value is None:
                    continue
                try:
                    data[key] = kind(value)
                except (TypeError, ValueError, OverflowError):
                    raise ValueError(f"{key} must be a number, got {value!r}") from None
        return super().from_dict(data)
