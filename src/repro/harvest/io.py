"""CSV import/export for power traces.

Real deployments log harvested power with instruments that export CSV;
this module round-trips :class:`~repro.harvest.traces.PowerTrace`
objects through a simple two-column ``time_s,power_w`` format (header
optional on import) so measured traces can drive the simulator.
"""

from __future__ import annotations

import csv
import io
import math
from typing import TextIO, Union

import numpy as np

from repro.harvest.traces import PowerTrace

Pathish = Union[str, TextIO]


def save_csv(trace: PowerTrace, target: Pathish) -> None:
    """Write a trace as ``time_s,power_w`` CSV (with header)."""
    own = isinstance(target, str)
    stream = open(target, "w", newline="") if own else target
    try:
        writer = csv.writer(stream)
        writer.writerow(["time_s", "power_w"])
        for index, power in enumerate(trace.samples_w):
            writer.writerow([f"{index * trace.dt_s:.9g}", f"{power:.9g}"])
    finally:
        if own:
            stream.close()


def load_csv(source: Pathish, source_name: str = "csv") -> PowerTrace:
    """Read a ``time_s,power_w`` CSV into a trace.

    The sampling period is inferred from the first two timestamps and
    must be uniform (±1%); a header row is detected and skipped.

    Raises:
        ValueError: on malformed rows, fewer than two samples, or a
            non-uniform time base.
    """
    own = isinstance(source, str)
    stream = open(source, "r", newline="") if own else source
    try:
        rows = list(csv.reader(stream))
    finally:
        if own:
            stream.close()
    if rows and rows[0] and not _is_number(rows[0][0]):
        rows = rows[1:]  # header
    samples = []
    times = []
    for line_no, row in enumerate(rows, start=1):
        if not row:
            continue
        if len(row) < 2:
            raise ValueError(f"row {line_no}: need time and power columns")
        try:
            times.append(float(row[0]))
            samples.append(float(row[1]))
        except ValueError as exc:
            raise ValueError(f"row {line_no}: {exc}") from exc
        if not (math.isfinite(times[-1]) and math.isfinite(samples[-1])):
            raise ValueError(f"row {line_no}: time and power must be finite")
    if len(samples) < 2:
        raise ValueError("need at least two samples to infer the time base")
    deltas = np.diff(times)
    dt = float(deltas[0])
    if dt <= 0:
        raise ValueError("timestamps must be strictly increasing")
    if np.any(np.abs(deltas - dt) > 0.01 * dt):
        raise ValueError("time base is not uniform")
    return PowerTrace(np.asarray(samples), dt, source=source_name)


def loads_csv(text: str, source_name: str = "csv") -> PowerTrace:
    """Parse CSV text (convenience wrapper over :func:`load_csv`)."""
    return load_csv(io.StringIO(text), source_name=source_name)


def _is_number(text: str) -> bool:
    try:
        float(text)
        return True
    except ValueError:
        return False
