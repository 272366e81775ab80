#!/usr/bin/env python3
"""Noise-aware comparison of two benchmark result sets.

    python3 benchmarks/e2e/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the records ``run.py --out`` appends, one per workload
run; a run's value for a metric is the median it reported.  For every
end-to-end metric in ``BENCHMARK.json`` and every workload in both
files, the verdict is:

* ``improved``: at least 10 pairs of runs, the change wins at least
  9/10 of them (ties count for neither side), and its median is better
  by more than the parent's inter-quartile distance;
* ``unresolved``: the runs spread (inter-quartile distance over median,
  the larger of the two sides) by more than the metric's bound, and
  neither side reads better than the other on every run;
* ``regressed``: the change's median is worse than the parent's by
  more than the bound;
* ``no-worse``: otherwise.

Give each side at least ten runs, made by running parent and change
alternately: with fewer, the quartiles are the extreme runs and a noisy
row reads unresolved.  Exits 1 if any row regressed or is unresolved.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Sequence

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load(path: str) -> Dict[str, Dict[str, List[float]]]:
    """``{workload: {metric: [one value per run]}}`` of untraced runs."""
    runs: Dict[str, Dict[str, List[float]]] = defaultdict(lambda: defaultdict(list))
    with open(path) as handle:
        for line in handle:
            record = json.loads(line)
            if record["trace"]:
                continue
            for metric, samples in record["samples"].items():
                runs[record["workload"]][metric].append(statistics.median(samples))
    return runs


def quartiles(values: Sequence[float]):
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def verdict(parent: Sequence[float], change: Sequence[float], bound: float,
            better: str) -> str:
    """One (metric, workload) verdict; see the module docstring."""
    sign = 1.0 if better == "higher" else -1.0
    p1, pmed, p3 = quartiles(parent)
    c1, cmed, c3 = quartiles(change)
    gain = sign * (cmed - pmed)
    pairs = list(zip(parent, change))
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    if len(pairs) >= 10 and wins >= 0.9 * len(pairs) and gain > p3 - p1:
        return "improved"
    spread = max((p3 - p1) / abs(pmed), (c3 - c1) / abs(cmed))
    all_better = all(sign * (c - p) > 0 for p in parent for c in change)
    all_worse = all(sign * (c - p) < 0 for p in parent for c in change)
    if spread > bound and not (all_better or all_worse):
        return "unresolved"
    if -gain > bound * abs(pmed):
        return "regressed"
    return "no-worse"


def _cell(values: Sequence[float]) -> str:
    q1, med, q3 = quartiles(values)
    return f"{med:.4g} [{q1:.4g}, {q3:.4g}] n={len(values)}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="result set of the parent (run.py --out)")
    parser.add_argument("change", help="result set of the change")
    args = parser.parse_args(argv)
    metrics = json.loads(BENCHMARK.read_text())["end_to_end"]
    parent, change = load(args.parent), load(args.change)
    failing = 0
    for workload in sorted(set(parent) & set(change)):
        print(f"{workload}")
        for metric in metrics:
            name = metric["name"]
            a, b = parent[workload][name], change[workload][name]
            if not a or not b:
                continue
            result = verdict(a, b, metric["bound"], metric["better"])
            failing += result in ("regressed", "unresolved")
            delta = statistics.median(b) / statistics.median(a) - 1.0
            print(f"  {name:16s} {_cell(a):38s} -> {_cell(b):38s} "
                  f"{delta:+7.1%} (bound {metric['bound']:.0%}, "
                  f"{metric['better']} is better)  {result}")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
