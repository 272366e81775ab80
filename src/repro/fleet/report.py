"""Fleet population summaries: percentiles over per-device results.

A fleet answers population questions a single run cannot: what
fraction of deployed devices survived the outage pattern, how skewed
is forward progress across trace offsets, how heavy is the backup
tail.  This module folds a fleet :class:`~repro.exp.runner.SweepOutcome`
into ``fleet.summary`` — percentile blocks per metric plus completion
and survival fractions — and writes the same benchmark-results JSON
shape the sweep engine uses, so fleet runs land in the existing
results/ledger trajectory.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.exp.report import spec_manifest, sweep_block, write_payload
from repro.exp.runner import SweepOutcome
from repro.fleet.spec import FleetSpec

#: Metrics summarised as percentile blocks: (name, result-dict key).
SUMMARY_METRICS: Tuple[Tuple[str, str], ...] = (
    ("forward_progress", "forward_progress"),
    ("on_time_fraction", "on_time_fraction"),
    ("backups", "backups"),
    ("restores", "restores"),
    ("rollbacks", "rollbacks"),
)

#: Percentiles reported per metric.
PERCENTILES = (5.0, 50.0, 95.0)


def _percentile_block(values: np.ndarray) -> Dict[str, float]:
    block = {
        f"p{int(q) if q == int(q) else q}": float(np.percentile(values, q))
        for q in PERCENTILES
    }
    block["mean"] = float(values.mean())
    block["min"] = float(values.min())
    block["max"] = float(values.max())
    return block


def fleet_summary(outcome: SweepOutcome) -> Dict:
    """Population summary of a fleet outcome (``fleet.summary``).

    Keys: ``n_devices``, ``completed_fraction`` (workload finished
    within the trace), ``survival_fraction`` (any forward progress at
    all — the device did useful work despite the outage pattern), and
    one percentile block per metric in :data:`SUMMARY_METRICS`.
    Devices without a result (failed points) are excluded from the
    percentiles but counted in ``n_devices``.
    """
    results = [r.result for r in outcome.records if r.result is not None]
    summary: Dict = {
        "n_devices": len(outcome.records),
        "evaluated": len(results),
    }
    if not results:
        summary["completed_fraction"] = 0.0
        summary["survival_fraction"] = 0.0
        summary["metrics"] = {}
        return summary
    completed = sum(1 for r in results if r.get("completed"))
    progress = np.array(
        [float(r.get("forward_progress") or 0) for r in results]
    )
    summary["completed_fraction"] = completed / len(results)
    summary["survival_fraction"] = float((progress > 0).mean())
    summary["metrics"] = {
        name: _percentile_block(
            np.array([float(r.get(key) or 0.0) for r in results])
        )
        for name, key in SUMMARY_METRICS
    }
    return summary


def summary_table(summary: Dict) -> Tuple[List[str], List[List]]:
    """``(headers, rows)`` rendering of :func:`fleet_summary`."""
    headers = ["metric"] + [f"p{int(q)}" for q in PERCENTILES] + [
        "mean", "min", "max",
    ]
    rows: List[List] = []
    for name, block in summary.get("metrics", {}).items():
        rows.append(
            [name]
            + [block[f"p{int(q)}"] for q in PERCENTILES]
            + [block["mean"], block["min"], block["max"]]
        )
    return headers, rows


def render_fleet_summary(summary: Dict, title: Optional[str] = None) -> str:
    """Human-readable fleet summary (for the CLI)."""
    from repro.analysis.report import format_table

    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append(
        f"devices: {summary['n_devices']}  "
        f"completed: {summary['completed_fraction']:.1%}  "
        f"survival: {summary['survival_fraction']:.1%}"
    )
    headers, rows = summary_table(summary)
    if rows:
        lines.append(format_table(headers, rows))
    return "\n".join(lines)


def fleet_payload(
    spec: FleetSpec,
    outcome: SweepOutcome,
    command: str = "fleet",
    telemetry: Optional[Dict] = None,
) -> Dict:
    """The benchmark-results JSON payload for one fleet run.

    ``telemetry`` is a :meth:`repro.fleet.telemetry.FleetTelemetry.summary`
    dict; when given, it is embedded in the payload and stamped into
    the run manifest, so the snapshot file is discoverable from both.
    """
    summary = fleet_summary(outcome)
    headers, rows = summary_table(summary)
    manifest = spec_manifest(
        spec, outcome, command, replicas=spec.replicas, stagger_s=spec.stagger_s
    )
    manifest.extra["n_devices"] = summary["n_devices"]
    if telemetry is not None:
        manifest.extra["telemetry"] = dict(telemetry)
    return {
        "experiment": spec.name,
        "description": spec.description,
        "tables": [
            {"title": "fleet summary", "columns": headers, "rows": rows}
        ],
        "fleet": {
            "summary": summary,
            "telemetry": telemetry,
            "devices": [
                {
                    "index": record.index,
                    "key": record.key,
                    "status": record.status,
                    "label": record.label,
                    "trace_offset_s": record.config.get("trace_offset_s", 0.0),
                    "result": record.result,
                }
                for record in outcome.records
            ],
        },
        "sweep": sweep_block(outcome),
        "manifest": manifest.to_dict(),
    }


def write_fleet_results(
    spec: FleetSpec,
    outcome: SweepOutcome,
    results_dir: str,
    command: str = "fleet",
    telemetry: Optional[Dict] = None,
) -> str:
    """Write ``<results_dir>/<spec.name>.json``; returns the path."""
    return write_payload(fleet_payload(spec, outcome, command, telemetry), results_dir)
