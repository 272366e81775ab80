"""Tests of the end-to-end benchmark itself.

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import layers
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


# -- compare.py verdicts --------------------------------------------------


def test_improved_needs_ten_winning_pairs_and_a_gap_beyond_the_spread():
    parent = [10.0, 10.1, 9.9, 10.2, 10.0, 9.8, 10.1, 10.0, 9.9, 10.1]
    change = [value - 1.0 for value in parent]
    assert compare.verdict(parent, change, 0.1, "lower") == "improved"
    # Nine pairs are not enough to claim a gain.
    assert compare.verdict(parent[:9], change[:9], 0.1, "lower") == "no-worse"


def test_ties_count_for_neither_side():
    parent = [10.0, 10.1, 9.9, 10.2, 10.0, 9.8, 10.1, 10.0, 9.9, 10.1]
    change = [value - 1.0 for value in parent]
    change[0] = parent[0]  # a tie: 9 wins of 10 pairs still claim the gain
    assert compare.verdict(parent, change, 0.1, "lower") == "improved"
    change[1] = parent[1]  # two ties: 8 of 10
    assert compare.verdict(parent, change, 0.1, "lower") == "no-worse"


def test_regressed_beyond_the_bound():
    parent = [100.0, 101.0, 99.0, 100.5, 99.5]
    change = [value * 0.8 for value in parent]
    assert compare.verdict(parent, change, 0.1, "higher") == "regressed"
    assert compare.verdict(parent, [v * 0.95 for v in parent], 0.1, "higher") == "no-worse"


def test_unresolved_when_the_spread_exceeds_the_bound():
    parent = [1.0, 1.5, 0.7, 1.3, 0.9]
    change = [1.1, 0.8, 1.4, 1.0, 1.2]
    assert compare.verdict(parent, change, 0.1, "lower") == "unresolved"
    # Wide spread, but every change run beats every parent run.
    assert compare.verdict(parent, [v / 10 for v in parent], 0.1, "lower") != "unresolved"


# -- the declared metrics -------------------------------------------------


def test_names_and_bounds_follow_the_benchmark_contract():
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    metrics = BENCH["end_to_end"] + BENCH["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in BENCH["workloads"]]
    assert all(name.match(n) for n in names)
    assert len(set(names)) == len(names)
    assert {w["name"] for w in BENCH["workloads"]} == set(WORKLOADS)
    assert all(0 < m["bound"] <= 0.25 for m in BENCH["end_to_end"])
    setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])


# -- the timing wrappers --------------------------------------------------


def _attributes():
    return [
        (owner, attr, vars(owner).get(attr))
        for owner, attr, _, _ in layers._targets(layers.LayerTimer())
    ]


def test_wrappers_restore_the_original_attributes():
    before = _attributes()
    with pytest.raises(RuntimeError):
        with layers.installed(layers.LayerTimer()):
            assert all(vars(owner)[attr] is not orig for owner, attr, orig in before)
            raise RuntimeError("pass failed")
    assert all(vars(owner).get(attr) is orig for owner, attr, orig in before)


def test_wrapper_splits_self_time_from_wrapped_children():
    timer = layers.LayerTimer()
    inner = timer.wrap("inner", lambda: sum(range(20000)))
    outer = timer.wrap("outer", lambda: inner() + inner())
    outer()
    stats = timer.stats
    assert stats["inner"].calls == 2
    assert stats["outer"].self_s == pytest.approx(
        stats["outer"].total_s - stats["inner"].total_s
    )
    assert timer.top_level_s == stats["outer"].total_s


# -- smoke runs -----------------------------------------------------------


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_quick_run_prints_every_declared_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--quick", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]}
        for m in declared
    }
    assert not list(ROOT.glob(".e2e-*"))


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "f4_sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
