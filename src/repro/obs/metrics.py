"""Metrics registry: counters and gauges with labeled series.

Prometheus-flavoured but dependency-free.  A metric is registered once
on a :class:`MetricsRegistry` with a fixed label-name tuple; each
distinct label-value combination owns an independent series::

    registry = MetricsRegistry()
    backups = registry.counter("backups", "committed backups", labels=("platform",))
    backups.labels(platform="nvp").inc()

Gauges may wrap a callback so live values (stored energy, capacitor
voltage) are sampled only when the registry is read, keeping the
simulation hot path untouched.

Label cardinality is capped: a metric holds at most ``max_series``
distinct label combinations (default :data:`DEFAULT_MAX_SERIES`).
Beyond the cap, :meth:`_Metric.labels` warns once (``RuntimeWarning``)
and routes every new combination to one shared *overflow* series that
is excluded from :meth:`_Metric.rows` — an instrumentation bug (say,
labeling by tick) degrades to a warning instead of unbounded memory.
"""

from __future__ import annotations

import warnings
from typing import Callable, Dict, Iterable, List, Optional, Tuple

LabelValues = Tuple[Tuple[str, str], ...]

#: Maximum labeled series per metric before new combinations are
#: dropped into the shared overflow child.
DEFAULT_MAX_SERIES = 1000


def _label_key(label_names: Tuple[str, ...], values: Dict[str, str]) -> LabelValues:
    if set(values) != set(label_names):
        raise ValueError(
            f"expected labels {label_names}, got {tuple(sorted(values))}"
        )
    # Sorted by label name — not registration order — so exported rows
    # and Prometheus exposition are byte-stable however a metric was
    # declared (golden-file tests depend on this).
    return tuple((name, str(values[name])) for name in sorted(label_names))


class _Metric:
    """Shared series bookkeeping for all metric kinds."""

    kind = "metric"

    def __init__(
        self,
        name: str,
        help: str,
        label_names: Tuple[str, ...],
        max_series: int = DEFAULT_MAX_SERIES,
    ) -> None:
        if not name or not name.replace("_", "").replace(".", "").isalnum():
            raise ValueError(f"invalid metric name {name!r}")
        if max_series < 1:
            raise ValueError("max_series must be >= 1")
        self.name = name
        self.help = help
        self.label_names = label_names
        self.max_series = max_series
        self._series: Dict[LabelValues, object] = {}
        #: Shared sink for label combinations beyond ``max_series``
        #: (never exported; ``None`` until the cap is first hit).
        self._overflow = None
        #: ``labels()`` calls routed to the overflow sink.
        self.overflow_count = 0

    def labels(self, **values: str):
        """The child series for one label-value combination.

        Past ``max_series`` distinct combinations, new ones share a
        single overflow series that is dropped from :meth:`rows` (with
        a one-time ``RuntimeWarning``) — updates stay cheap and memory
        stays bounded even if a caller labels by something unbounded.
        """
        if not self.label_names:
            raise ValueError(f"metric {self.name!r} takes no labels")
        key = _label_key(self.label_names, values)
        child = self._series.get(key)
        if child is None:
            if len(self._series) >= self.max_series:
                self.overflow_count += 1
                if self._overflow is None:
                    self._overflow = self._new_child()
                    warnings.warn(
                        f"metric {self.name!r} exceeded {self.max_series} "
                        f"labeled series; further label combinations are "
                        f"dropped into a shared overflow series",
                        RuntimeWarning,
                        stacklevel=2,
                    )
                return self._overflow
            child = self._new_child()
            self._series[key] = child
        return child

    def _default_child(self):
        """The implicit unlabeled series."""
        if self.label_names:
            raise ValueError(f"metric {self.name!r} requires labels {self.label_names}")
        child = self._series.get(())
        if child is None:
            child = self._new_child()
            self._series[()] = child
        return child

    def _new_child(self):  # pragma: no cover - overridden
        raise NotImplementedError

    def series(self) -> Dict[LabelValues, object]:
        """All label combinations and their series objects."""
        return dict(self._series)

    def rows(self) -> List[Tuple[str, str, str, str, float]]:
        """Flat ``(kind, name, labels, field, value)`` rows."""
        out: List[Tuple[str, str, str, str, float]] = []
        for key, child in sorted(self._series.items()):
            label_text = ",".join(f"{k}={v}" for k, v in key)
            for field, value in child.fields():
                out.append((self.kind, self.name, label_text, field, value))
        return out


class _CounterChild:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount

    def fields(self) -> List[Tuple[str, float]]:
        return [("value", self.value)]


class Counter(_Metric):
    """Monotonically increasing count."""

    kind = "counter"

    def _new_child(self) -> _CounterChild:
        return _CounterChild()

    def inc(self, amount: float = 1.0) -> None:
        self._default_child().inc(amount)

    @property
    def value(self) -> float:
        return self._default_child().value


class _GaugeChild:
    __slots__ = ("_value", "_fn")

    def __init__(self, fn: Optional[Callable[[], float]] = None) -> None:
        self._value = 0.0
        self._fn = fn

    def set(self, value: float) -> None:
        if self._fn is not None:
            raise ValueError("callback gauge cannot be set directly")
        self._value = float(value)

    def set_function(self, fn: Callable[[], float]) -> None:
        self._fn = fn

    @property
    def value(self) -> float:
        return float(self._fn()) if self._fn is not None else self._value

    def fields(self) -> List[Tuple[str, float]]:
        return [("value", self.value)]


class Gauge(_Metric):
    """Point-in-time value; optionally computed by a callback."""

    kind = "gauge"

    def __init__(
        self,
        name: str,
        help: str,
        label_names: Tuple[str, ...],
        fn: Optional[Callable[[], float]] = None,
        max_series: int = DEFAULT_MAX_SERIES,
    ) -> None:
        super().__init__(name, help, label_names, max_series=max_series)
        self._fn = fn
        if fn is not None and not label_names:
            self._series[()] = _GaugeChild(fn)

    def _new_child(self) -> _GaugeChild:
        return _GaugeChild()

    def set(self, value: float) -> None:
        self._default_child().set(value)

    def set_function(self, fn: Callable[[], float]) -> None:
        self._default_child().set_function(fn)

    @property
    def value(self) -> float:
        return self._default_child().value


class MetricsRegistry:
    """Owns every metric of one run; the unit the exporters consume.

    Re-registering a name returns the existing metric when the kind
    and labels match (so independent components can share a metric)
    and raises otherwise.

    Args:
        max_series: per-metric labeled-series cap applied to every
            metric registered here (see the module docstring).
    """

    def __init__(self, max_series: int = DEFAULT_MAX_SERIES) -> None:
        self._metrics: Dict[str, _Metric] = {}
        self.max_series = max_series

    def _register(self, metric: _Metric) -> _Metric:
        existing = self._metrics.get(metric.name)
        if existing is not None:
            if (
                existing.kind != metric.kind
                or existing.label_names != metric.label_names
            ):
                raise ValueError(
                    f"metric {metric.name!r} already registered as "
                    f"{existing.kind}{existing.label_names}"
                )
            return existing
        self._metrics[metric.name] = metric
        return metric

    def counter(
        self, name: str, help: str = "", labels: Iterable[str] = ()
    ) -> Counter:
        return self._register(
            Counter(name, help, tuple(labels), max_series=self.max_series)
        )  # type: ignore[return-value]

    def gauge(
        self,
        name: str,
        help: str = "",
        labels: Iterable[str] = (),
        fn: Optional[Callable[[], float]] = None,
    ) -> Gauge:
        return self._register(
            Gauge(name, help, tuple(labels), fn=fn, max_series=self.max_series)
        )  # type: ignore[return-value]

    def get(self, name: str) -> _Metric:
        """Look up a registered metric.

        Raises:
            KeyError: for an unknown name.
        """
        return self._metrics[name]

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def rows(self) -> List[Tuple[str, str, str, str, float]]:
        """Every series of every metric as flat CSV-ready rows."""
        out: List[Tuple[str, str, str, str, float]] = []
        for name in sorted(self._metrics):
            out.extend(self._metrics[name].rows())
        return out

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """``{metric: {"labels|field": value}}`` view for assertions."""
        view: Dict[str, Dict[str, float]] = {}
        for kind, name, labels, field, value in self.rows():
            del kind
            view.setdefault(name, {})[f"{labels}|{field}" if labels else field] = value
        return view
