"""Folding sweep outcomes into the benchmark results trajectory.

The ``bench_*`` harness writes one JSON per experiment under
``benchmarks/results/`` — ``{experiment, description, tables,
manifest}``.  This module renders a :class:`~repro.exp.runner.SweepOutcome`
into exactly that shape (plus a ``sweep`` accounting block), so engine
runs land in the same trajectory the benchmarks and CI artifacts
already use, stamped with a PR-1 run manifest.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional, Sequence, Tuple

from repro.exp.runner import SweepOutcome
from repro.exp.spec import ExperimentSpec
from repro.obs.manifest import RunManifest

#: Default per-point columns: (header, result-dict key).
DEFAULT_FIELDS: Tuple[Tuple[str, str], ...] = (
    ("FP", "forward_progress"),
    ("backups", "backups"),
    ("rollbacks", "rollbacks"),
    ("on-time", "on_time_fraction"),
)


def outcome_table(
    outcome: SweepOutcome,
    fields: Sequence[Tuple[str, str]] = DEFAULT_FIELDS,
) -> Tuple[List[str], List[List]]:
    """``(headers, rows)`` for the per-point summary table.

    Failed points render their error instead of metric values, so a
    partially-failed sweep still produces a complete table.
    """
    headers = ["point", "status"] + [header for header, _ in fields]
    rows: List[List] = []
    for record in outcome.records:
        row: List = [record.label, record.status]
        if record.result is None:
            first_line = (record.error or "").strip().splitlines()
            row.append(first_line[-1] if first_line else "?")
            row.extend("" for _ in fields[1:])
        else:
            row.extend(record.result.get(key) for _, key in fields)
        rows.append(row)
    return headers, rows


def spec_manifest(
    spec: ExperimentSpec, outcome: SweepOutcome, command: str, **config
) -> RunManifest:
    """A results payload's manifest: the spec's mode, base, axes, ``config``."""
    manifest = RunManifest.collect(
        command=f"{command}:{spec.name}",
        config={
            "mode": spec.mode,
            "base": dict(spec.base),
            "axes": {axis: list(v) for axis, v in spec.axes.items()},
            **config,
        },
    )
    manifest.duration_s = outcome.wall_s
    manifest.backend = outcome.backend
    return manifest


def sweep_block(outcome: SweepOutcome) -> Dict:
    """The ``sweep`` accounting block of a results payload."""
    return {
        "points": len(outcome.records),
        "executed": outcome.executed,
        "cached": outcome.cached,
        "failed": outcome.failed,
        "interrupted": outcome.interrupted,
        "wall_s": outcome.wall_s,
        "resources": outcome.resource_usage(),
    }


def outcome_payload(
    spec: ExperimentSpec,
    outcome: SweepOutcome,
    command: str = "sweep",
    fields: Sequence[Tuple[str, str]] = DEFAULT_FIELDS,
) -> Dict:
    """The benchmark-results JSON payload for one sweep."""
    headers, rows = outcome_table(outcome, fields)
    sweep = sweep_block(outcome)
    sweep["runs"] = [
        {
            "index": record.index,
            "key": record.key,
            "status": record.status,
            "label": record.label,
            "wall_s": record.wall_s,
            "cpu_s": record.cpu_s,
            "peak_rss_kb": record.peak_rss_kb,
            "pid": record.pid,
            "error": record.error,
        }
        for record in outcome.records
    ]
    return {
        "experiment": spec.name,
        "description": spec.description,
        "tables": [
            {"title": "sweep points", "columns": headers, "rows": rows}
        ],
        "sweep": sweep,
        "manifest": spec_manifest(spec, outcome, command).to_dict(),
    }


def write_payload(payload: Dict, results_dir: str) -> str:
    """Write ``<results_dir>/<experiment>.json``; returns the path."""
    os.makedirs(results_dir, exist_ok=True)
    path = os.path.join(results_dir, f"{payload['experiment']}.json")
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    return path


def write_results(
    spec: ExperimentSpec,
    outcome: SweepOutcome,
    results_dir: str,
    command: str = "sweep",
    fields: Sequence[Tuple[str, str]] = DEFAULT_FIELDS,
) -> str:
    """Write ``<results_dir>/<spec.name>.json``; returns the path."""
    return write_payload(outcome_payload(spec, outcome, command, fields), results_dir)


def render_outcome(
    outcome: SweepOutcome,
    fields: Sequence[Tuple[str, str]] = DEFAULT_FIELDS,
    title: Optional[str] = None,
) -> str:
    """Human-readable table + accounting line (for the CLI)."""
    from repro.analysis.report import format_table

    headers, rows = outcome_table(outcome, fields)
    lines = []
    if title:
        lines.append(title)
    lines.append(format_table(headers, rows))
    lines.append("")
    lines.append(f"sweep: {outcome.summary()}")
    return "\n".join(lines)
