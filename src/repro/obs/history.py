"""Benchmark history: append-only metric trajectories + regression gate.

Every benchmark run appends one manifest-stamped JSONL record to
``benchmarks/results/history.jsonl`` — ``{experiment, run, metrics,
manifest, recorded_unix}`` — so the performance trajectory the ROADMAP
promises ("measurably faster every PR") is a file under version
control, not a memory.  Within one process a record is *upserted* by
``(experiment, run)``: a benchmark that publishes metrics several
times while running updates its line instead of spamming the history.

The regression gate (``repro bench-report``) diffs the latest record
of each experiment against a baseline — the committed history, a
separate baseline file, or the previous record in the same history —
and fails (exit nonzero) when a gated metric drops by more than
``max_regression``.  Gated metrics are the higher-is-better ones:
anything whose name mentions ``throughput``, ``speedup``,
``ticks_per_s`` or ``instr_per_s``.
"""

from __future__ import annotations

import json
import math
import os
import time
import warnings
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.obs.export import read_jsonl, rewrite_jsonl

#: Default on-disk location, relative to the repository root.
DEFAULT_HISTORY_PATH = os.path.join("benchmarks", "results", "history.jsonl")

#: Gate threshold: fail when a gated metric drops by more than this.
DEFAULT_MAX_REGRESSION = 0.2

#: A metric gates the build when its name contains one of these —
#: higher is better for all of them.
GATED_METRIC_MARKERS: Tuple[str, ...] = (
    "throughput", "speedup", "ticks_per_s", "instr_per_s",
)


def is_gated_metric(name: str) -> bool:
    """True when the metric participates in the regression gate."""
    lowered = name.lower()
    return any(marker in lowered for marker in GATED_METRIC_MARKERS)


# -- recording -------------------------------------------------------------


#: History files already warned about (one skipped-lines warning per
#: path per process, so a rebuilt report does not spam).
_WARNED_PATHS: Set[str] = set()


def read_history(path: str) -> List[Dict]:
    """Every record in a history file, oldest first.

    Missing files read as empty; torn/corrupt lines are skipped (an
    interrupted append must not poison the whole trajectory) with one
    :class:`RuntimeWarning` per file per process saying how many.
    """
    try:
        records, skipped = read_jsonl(path)
    except OSError:
        return []
    if skipped and path not in _WARNED_PATHS:
        _WARNED_PATHS.add(path)
        warnings.warn(
            f"{path}: skipped {skipped} unparseable line(s) "
            "(torn append or corruption)",
            RuntimeWarning,
            stacklevel=2,
        )
    return [record for record in records if "experiment" in record]


def append_record(
    path: str,
    experiment: str,
    metrics: Dict[str, float],
    run: str = "",
    manifest: Optional[Dict] = None,
) -> Dict:
    """Upsert one benchmark record into the history file.

    An existing record with the same ``(experiment, run)`` is replaced
    in place (its metrics merged with the new ones); otherwise the
    record is appended.  Returns the stored record.
    """
    if not experiment:
        raise ValueError("experiment name required")
    clean = {name: float(value) for name, value in metrics.items()}
    records = read_history(path)
    for record in records:
        if record.get("experiment") == experiment and record.get("run") == run:
            record.setdefault("metrics", {}).update(clean)
            record["recorded_unix"] = time.time()
            if manifest is not None:
                record["manifest"] = manifest
            rewrite_jsonl(path, records)
            return record
    record = {
        "experiment": experiment,
        "run": run,
        "recorded_unix": time.time(),
        "metrics": clean,
    }
    if manifest is not None:
        record["manifest"] = manifest
    records.append(record)
    rewrite_jsonl(path, records)
    return record


def latest_record(records: Sequence[Dict], experiment: str) -> Optional[Dict]:
    """The newest record for an experiment (file order = age order)."""
    for record in reversed(records):
        if record.get("experiment") == experiment:
            return record
    return None


def experiments(records: Sequence[Dict]) -> List[str]:
    """Experiment names present, in first-appearance order."""
    seen: List[str] = []
    for record in records:
        name = record.get("experiment")
        if name and name not in seen:
            seen.append(name)
    return seen


# -- the gate --------------------------------------------------------------


class MetricDelta:
    """One metric compared across baseline → latest.

    Attributes:
        metric: metric name.
        baseline: baseline value (``None`` when newly added).
        latest: latest value (``None`` when it disappeared).
        change: fractional change vs baseline (``nan`` when not
            computable).
        gated: whether the metric participates in the gate.
        regressed: gate verdict for this metric.
    """

    __slots__ = ("metric", "baseline", "latest", "change", "gated", "regressed")

    def __init__(
        self,
        metric: str,
        baseline: Optional[float],
        latest: Optional[float],
        max_regression: float,
    ) -> None:
        self.metric = metric
        self.baseline = baseline
        self.latest = latest
        self.gated = is_gated_metric(metric)
        if baseline is not None and latest is not None and baseline != 0:
            self.change = (latest - baseline) / abs(baseline)
        else:
            self.change = math.nan
        self.regressed = (
            self.gated
            and baseline is not None
            and latest is not None
            and baseline > 0
            and latest < (1.0 - max_regression) * baseline
        )


def compare_metrics(
    baseline: Dict[str, float],
    latest: Dict[str, float],
    max_regression: float = DEFAULT_MAX_REGRESSION,
) -> List[MetricDelta]:
    """Delta rows for the union of both metric sets, sorted by name."""
    if not 0 < max_regression < 1:
        raise ValueError("max_regression must be in (0, 1)")
    names = sorted(set(baseline) | set(latest))
    return [
        MetricDelta(
            name, baseline.get(name), latest.get(name), max_regression
        )
        for name in names
    ]


class BenchReport:
    """The full diff of one history against a baseline history."""

    def __init__(self, max_regression: float = DEFAULT_MAX_REGRESSION) -> None:
        self.max_regression = max_regression
        #: ``[(experiment, deltas, baseline_record, latest_record)]``
        self.sections: List[Tuple[str, List[MetricDelta], Optional[Dict], Dict]] = []

    def add(
        self,
        experiment: str,
        baseline: Optional[Dict],
        latest: Dict,
    ) -> None:
        deltas = compare_metrics(
            (baseline or {}).get("metrics", {}),
            latest.get("metrics", {}),
            self.max_regression,
        )
        self.sections.append((experiment, deltas, baseline, latest))

    @property
    def regressions(self) -> List[Tuple[str, MetricDelta]]:
        """Every failed gate as ``(experiment, delta)``."""
        return [
            (experiment, delta)
            for experiment, deltas, _b, _l in self.sections
            for delta in deltas
            if delta.regressed
        ]

    @property
    def passed(self) -> bool:
        return not self.regressions

    def to_markdown(self) -> str:
        """The report as a markdown document."""
        lines = ["# Benchmark report", ""]
        verdict = "PASS" if self.passed else "FAIL"
        lines.append(
            f"Gate: **{verdict}** "
            f"(max allowed regression on gated metrics: "
            f"{self.max_regression:.0%})"
        )
        lines.append("")
        for experiment, deltas, baseline, latest in self.sections:
            lines.append(f"## {experiment}")
            sha = (latest.get("manifest") or {}).get("git_sha", "unknown")
            base_sha = (
                (baseline or {}).get("manifest") or {}
            ).get("git_sha", "unknown")
            lines.append(
                f"baseline `{base_sha[:12]}` → latest `{sha[:12]}`"
            )
            lines.append("")
            lines.append("| metric | baseline | latest | change | gate |")
            lines.append("|---|---:|---:|---:|---|")
            for delta in deltas:
                base = "—" if delta.baseline is None else f"{delta.baseline:.6g}"
                new = "—" if delta.latest is None else f"{delta.latest:.6g}"
                change = (
                    "—" if math.isnan(delta.change) else f"{delta.change:+.1%}"
                )
                if not delta.gated:
                    gate = ""
                elif delta.regressed:
                    gate = "REGRESSED"
                else:
                    gate = "ok"
                lines.append(
                    f"| {delta.metric} | {base} | {new} | {change} | {gate} |"
                )
            lines.append("")
        if not self.sections:
            lines.append("_No benchmark records found._")
            lines.append("")
        return "\n".join(lines)

    def to_dict(self) -> Dict:
        """JSON-safe structured form (``nan`` changes become ``None``)."""
        sections = []
        for experiment, deltas, baseline, latest in self.sections:
            sections.append({
                "experiment": experiment,
                "baseline_git_sha": (
                    (baseline or {}).get("manifest") or {}
                ).get("git_sha"),
                "latest_git_sha": (
                    (latest or {}).get("manifest") or {}
                ).get("git_sha"),
                "metrics": [
                    {
                        "metric": delta.metric,
                        "baseline": delta.baseline,
                        "latest": delta.latest,
                        "change": (
                            None if math.isnan(delta.change)
                            else delta.change
                        ),
                        "gated": delta.gated,
                        "regressed": delta.regressed,
                    }
                    for delta in deltas
                ],
            })
        return {
            "passed": self.passed,
            "max_regression": self.max_regression,
            "regressions": [
                {"experiment": experiment, "metric": delta.metric,
                 "baseline": delta.baseline, "latest": delta.latest}
                for experiment, delta in self.regressions
            ],
            "sections": sections,
        }

    def to_json(self) -> str:
        """:meth:`to_dict` as an indented JSON document."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def to_html(self) -> str:
        """The markdown report wrapped in a minimal HTML page.

        Dependency-free: the markdown is shown preformatted, which
        every browser and CI artifact viewer renders legibly.
        """
        body = (
            self.to_markdown()
            .replace("&", "&amp;")
            .replace("<", "&lt;")
            .replace(">", "&gt;")
        )
        color = "#2e7d32" if self.passed else "#c62828"
        return (
            "<!doctype html><html><head><meta charset='utf-8'>"
            "<title>Benchmark report</title></head>"
            f"<body style='font-family:monospace;color:{color}'>"
            f"<pre style='color:#222'>{body}</pre></body></html>\n"
        )


def build_report(
    history_path: str,
    baseline_path: Optional[str] = None,
    max_regression: float = DEFAULT_MAX_REGRESSION,
) -> BenchReport:
    """Diff the latest record of every experiment against its baseline.

    With ``baseline_path`` the baseline is that file's latest record
    per experiment (the committed-history workflow: compare a fresh
    run against the checked-in trajectory).  Without it, the baseline
    is the *previous* record in the same history file.
    """
    records = read_history(history_path)
    base_records = read_history(baseline_path) if baseline_path else None
    report = BenchReport(max_regression=max_regression)
    for experiment in experiments(records):
        latest = latest_record(records, experiment)
        if latest is None:  # pragma: no cover - experiments() guarantees it
            continue
        if base_records is not None:
            baseline = latest_record(base_records, experiment)
        else:
            earlier = [
                record
                for record in records
                if record.get("experiment") == experiment
                and record is not latest
            ]
            baseline = earlier[-1] if earlier else None
        report.add(experiment, baseline, latest)
    return report
