"""Declarative experiment specs.

An :class:`ExperimentSpec` describes a *family* of simulations — a
base configuration plus one or more swept axes — and expands into a
deterministic list of fully-resolved run configs.  Every resolved
config is a plain JSON-able dict with a stable content hash
(:func:`config_hash`), which is what the result cache and the sweep
runner key on: the same spec always expands to the same configs in
the same order with the same hashes, on any machine.

Three expansion modes:

* ``grid`` — the Cartesian product of all axes (architecture-space
  exploration: every technology x every capacitor x every policy);
* ``zip`` — axes advance in lockstep (labelled configurations, like
  the retention-policy ladder);
* ``ensemble`` — a grid that must sweep ``seed`` (the same design
  point across an ensemble of stochastic traces).

Axis names may be dotted (``"nvp.backup_margin"``) to reach into the
nested NVP architecture config.
"""

from __future__ import annotations

import copy
import hashlib
import itertools
import json
import math
import numbers
from dataclasses import dataclass, field, fields
from typing import ClassVar, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

#: Expansion modes understood by :meth:`ExperimentSpec.expand`.
MODES = ("grid", "zip", "ensemble")

#: Platform presets the runner can build (mirrors the CLI).
PLATFORMS = ("nvp", "wait", "checkpoint", "oracle")

#: Trace sources the runner can synthesise.  ``profile`` selects one
#: of the five standard wristwatch evaluation profiles by
#: ``profile_index``; ``constant`` uses ``mean_uw`` as a DC level.
SOURCES = (
    "wristwatch", "solar", "rf", "thermal", "hybrid", "constant", "profile",
)

#: Every top-level config key with its default.  ``resolve_config``
#: rejects anything else so a typo in a spec fails fast instead of
#: silently sweeping nothing.
CONFIG_DEFAULTS: Dict[str, object] = {
    "platform": "nvp",          # one of PLATFORMS
    "source": "wristwatch",     # one of SOURCES
    "duration_s": 1.0,          # simulated seconds
    "seed": 7,                  # trace RNG seed
    "mean_uw": None,            # rescale trace mean (uW); level for constant
    "profile_index": 0,         # which standard profile (source="profile")
    "profile_count": 5,         # how many standard profiles exist
    "capacitance_f": None,      # storage size; None = platform default
    "energy_margin": None,      # wait-and-compute margin; None = default
    "nvp": {},                  # NVPConfig keyword overrides
    "platform_seed": 0,         # platform-internal RNG seed
    "kernel": None,             # NV16 kernel name; None = abstract mix
    "frames": 5,                # frames for kernel workloads
    "stop_when_finished": None, # None = True iff a kernel is set
    "rectifier": True,          # route the trace through the AC-DC front end
    "label": None,              # None = auto-generated from swept axes
}

#: Numeric config keys checked at the boundary, with the bound a value
#: must exceed.  Keys whose default is ``None`` also accept ``None``.
_NUMERIC_KEYS = {
    "duration_s": 0, "mean_uw": -math.inf,
    "capacitance_f": 0, "energy_margin": -math.inf,
}

#: Lowest value a finite numeric key may take.
_MINIMUMS = {"mean_uw": 0, "energy_margin": 1}

#: Integer config keys checked at the boundary, with their lowest value.
_INTEGER_KEYS = {
    "seed": 0, "platform_seed": 0,
    "profile_index": 0, "profile_count": 1, "frames": 1,
}


def _nvp_field_names() -> Tuple[str, ...]:
    from repro.core.config import NVPConfig

    return tuple(f.name for f in fields(NVPConfig))


def build_nvp_config(overrides: Mapping):
    """NVPConfig from the JSON-able ``nvp`` sub-config.

    ``technology`` is an NVM catalog name; ``retention_policy`` is
    ``{"kind": "linear"|"log"|"parabola"|"uniform", ...ctor kwargs}``.
    """
    from repro.core.config import NVPConfig
    from repro.nvm.retention import (
        LinearPolicy,
        LogPolicy,
        ParabolaPolicy,
        UniformPolicy,
    )
    from repro.nvm.technology import technology_by_name

    kwargs = dict(overrides)
    if isinstance(kwargs.get("technology"), str):
        kwargs["technology"] = technology_by_name(kwargs["technology"])
    policy = kwargs.get("retention_policy")
    if isinstance(policy, dict):
        spec = dict(policy)
        kind = spec.pop("kind", None)
        classes = {
            "linear": LinearPolicy,
            "log": LogPolicy,
            "parabola": ParabolaPolicy,
            "uniform": UniformPolicy,
        }
        if kind not in classes:
            raise ValueError(
                f"unknown retention policy kind {kind!r}; "
                f"known: {sorted(classes)}"
            )
        kwargs["retention_policy"] = classes[kind](**spec)
    if "approx_registers" in kwargs and kwargs["approx_registers"] is not None:
        kwargs["approx_registers"] = tuple(kwargs["approx_registers"])
    return NVPConfig(**kwargs)


def _assign(config: Dict, key: str, value) -> None:
    """Set ``key`` in ``config``, descending through dotted paths."""
    parts = key.split(".")
    target = config
    for part in parts[:-1]:
        node = target.setdefault(part, {})
        if not isinstance(node, dict):
            raise ValueError(f"cannot descend into non-dict key {part!r}")
        target = node
    target[parts[-1]] = value


def resolve_config(config: Mapping) -> Dict:
    """Merge ``config`` over the defaults and validate every key.

    Accepts dotted keys (``"nvp.state_bits"``).  Returns a new plain
    dict containing *every* key from :data:`CONFIG_DEFAULTS`, suitable
    for hashing and for shipping to a worker process.

    The ``nvp`` block is parsed into an ``NVPConfig`` to validate it,
    and the object is dropped: the resolved config keeps the plain
    JSON block, so hashes and cache keys do not depend on it.

    Raises:
        ValueError: unknown keys, unknown platform/source/kernel, or
            malformed nested configs.
    """
    merged: Dict = {k: (dict(v) if isinstance(v, dict) else v)
                    for k, v in CONFIG_DEFAULTS.items()}
    for key, value in config.items():
        # Deep-copied so a resolved config never aliases (and dotted
        # axis keys never mutate) the caller's nested dicts.
        _assign(merged, key, copy.deepcopy(value))
    unknown = set(merged) - set(CONFIG_DEFAULTS)
    if unknown:
        raise ValueError(
            f"unknown config key(s) {sorted(unknown)}; "
            f"known: {sorted(CONFIG_DEFAULTS)}"
        )
    if merged["platform"] not in PLATFORMS:
        raise ValueError(
            f"unknown platform {merged['platform']!r}; known: {PLATFORMS}"
        )
    if merged["source"] not in SOURCES:
        raise ValueError(
            f"unknown source {merged['source']!r}; known: {SOURCES}"
        )
    if not isinstance(merged["nvp"], dict):
        raise ValueError("'nvp' must be a dict of NVPConfig overrides")
    bad = set(merged["nvp"]) - set(_nvp_field_names())
    if bad:
        raise ValueError(f"unknown NVPConfig key(s) {sorted(bad)}")
    if merged["nvp"]:
        try:
            build_nvp_config(merged["nvp"])
        except (AttributeError, KeyError, TypeError) as exc:
            # Values of the wrong type fail inside NVPConfig; report
            # them like every other malformed key.
            raise ValueError(f"nvp: {exc.args[0]}") from exc
    for key, low in _NUMERIC_KEYS.items():
        value = merged[key]
        if value is None and CONFIG_DEFAULTS[key] is None:
            continue
        # Written so NaN fails too (every comparison with NaN is False):
        # Python's json parses NaN and Infinity literals.
        if not (isinstance(value, numbers.Real) and low < value < math.inf):
            positive = "positive and " if low == 0 else ""
            raise ValueError(f"{key} must be {positive}finite")
    for key, low in _MINIMUMS.items():
        if merged[key] is not None and merged[key] < low:
            raise ValueError(f"{key} must be >= {low}")
    for key, low in _INTEGER_KEYS.items():
        value = merged[key]
        # ``True`` is an Integral too, and would run as 1.
        if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
                or value < low):
            kind = "positive" if low == 1 else "non-negative"
            raise ValueError(f"{key} must be a {kind} integer")
    if merged["stop_when_finished"] is None:
        merged["stop_when_finished"] = merged["kernel"] is not None
    return merged


def canonical_json(obj) -> str:
    """Deterministic JSON encoding (sorted keys, no whitespace).

    Raises:
        TypeError: if ``obj`` contains non-JSON-able values — configs
            must stay plain data so hashes are portable across
            processes and machines.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_hash(config: Mapping) -> str:
    """Stable content hash of a resolved config (64 hex chars)."""
    return hashlib.sha256(canonical_json(config).encode("utf-8")).hexdigest()


def _auto_label(point: Mapping[str, object]) -> str:
    return ",".join(f"{k}={v!r}" if isinstance(v, str) else f"{k}={v}"
                    for k, v in point.items())


@dataclass(frozen=True)
class ExperimentSpec:
    """A declarative sweep: base config + swept axes + expansion mode.

    Attributes:
        name: experiment identifier (also the results file stem).
        axes: ``{axis_name: [values...]}`` — axis names are config
            keys, optionally dotted into the ``nvp`` sub-config.
        base: config keys shared by every point.
        mode: ``"grid"``, ``"zip"`` or ``"ensemble"``.
        description: free-form, carried into the results payload.
    """

    #: Expansion modes this kind of spec accepts.
    modes: ClassVar[Tuple[str, ...]] = MODES

    name: str
    axes: Mapping[str, Sequence] = field(default_factory=dict)
    base: Mapping = field(default_factory=dict)
    mode: str = "grid"
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("spec needs a name")
        if self.mode not in self.modes:
            raise ValueError(f"unknown mode {self.mode!r}; known: {self.modes}")
        if self.mode == "ensemble" and "seed" not in self.axes:
            raise ValueError("ensemble mode requires a 'seed' axis")
        for axis, values in self.axes.items():
            # A bare string or number would otherwise be iterated
            # character by character or raise a TypeError.
            if not isinstance(values, (list, tuple)):
                raise ValueError(f"axis {axis!r} must be a list, got {values!r}")
            if not values:
                raise ValueError(f"axis {axis!r} has no values")
        if self.mode == "zip" and self.axes:
            lengths = {axis: len(v) for axis, v in self.axes.items()}
            if len(set(lengths.values())) > 1:
                raise ValueError(f"zip axes differ in length: {lengths}")

    def points(self) -> List[Dict[str, object]]:
        """The swept ``{axis: value}`` combinations, in sweep order."""
        if not self.axes:
            return [{}]
        names = list(self.axes)
        if self.mode == "zip":
            return [
                dict(zip(names, combo)) for combo in zip(*self.axes.values())
            ]
        return [
            dict(zip(names, combo))
            for combo in itertools.product(*self.axes.values())
        ]

    def raw_configs(self) -> Iterator[Dict]:
        """Each point merged over the base, auto-labelled, unresolved."""
        for point in self.points():
            raw = dict(self.base)
            raw.update(point)
            if "label" not in raw and point:
                raw["label"] = _auto_label(point)
            yield raw

    def expand(self) -> List[Dict]:
        """Resolve every sweep point into a full run config.

        Returns the configs in deterministic sweep order: for grids,
        the last axis varies fastest (like nested loops in axis
        order); for zips, index order.
        """
        return [resolve_config(raw) for raw in self.raw_configs()]

    def hashes(self) -> List[str]:
        """Content hash per expanded config (same order)."""
        return [config_hash(c) for c in self.expand()]

    @classmethod
    def from_dict(cls, data: Mapping) -> "ExperimentSpec":
        """Build a spec from a plain dict (the JSON file layout)."""
        if not isinstance(data, Mapping):
            raise ValueError("spec must be a JSON object")
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown spec key(s) {sorted(unknown)}; known: {sorted(known)}"
            )
        if "name" not in data:
            raise ValueError("spec needs a name")
        values = dict(data)
        for key in ("axes", "base"):
            value = data.get(key) or {}
            if not isinstance(value, Mapping):
                raise ValueError(f"spec {key!r} must be a JSON object")
            values[key] = dict(value)
        return cls(**values)

    @classmethod
    def from_file(cls, path: str) -> "ExperimentSpec":
        """Load a spec from a JSON file."""
        with open(path) as handle:
            try:
                data = json.load(handle)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}: not valid JSON: {exc}") from exc
        return cls.from_dict(data)

    @classmethod
    def ensemble(
        cls,
        name: str,
        seeds: Sequence[int],
        base: Optional[Mapping] = None,
        description: str = "",
        **axes: Sequence,
    ) -> "ExperimentSpec":
        """Convenience: the same design point(s) across many seeds."""
        all_axes: Dict[str, Sequence] = {"seed": list(seeds)}
        all_axes.update(axes)
        return cls(
            name=name,
            axes=all_axes,
            base=dict(base or {}),
            mode="ensemble",
            description=description,
        )
