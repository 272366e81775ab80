"""Tests for folding sweep outcomes into the results trajectory."""

import json

from repro.exp import ExperimentSpec, SweepRunner
from repro.exp.report import (
    outcome_payload,
    outcome_table,
    render_outcome,
    write_results,
)

FAST = {"source": "wristwatch", "duration_s": 0.2, "seed": 11}


def _spec_and_outcome(axes=None):
    spec = ExperimentSpec(
        name="report-test",
        description="report folding",
        base=FAST,
        axes=axes or {"capacitance_f": [68e-9, 150e-9]},
    )
    return spec, SweepRunner().run(spec.expand())


class TestOutcomeTable:
    def test_headers_and_rows(self):
        _, outcome = _spec_and_outcome()
        headers, rows = outcome_table(outcome)
        assert headers[:2] == ["point", "status"]
        assert "FP" in headers
        assert len(rows) == 2
        assert all(row[1] == "ok" for row in rows)

    def test_failed_rows_carry_error(self):
        spec, _ = _spec_and_outcome()
        bad = spec.expand()[0] | {"source": "profile", "profile_index": 9}
        outcome = SweepRunner().run([bad])
        _, rows = outcome_table(outcome)
        assert rows[0][1] == "failed"
        assert "profile_index" in rows[0][2]


class TestPayload:
    def test_matches_benchmark_results_shape(self):
        spec, outcome = _spec_and_outcome()
        payload = outcome_payload(spec, outcome)
        # The exact shape benchmarks/common.py writes.
        assert payload["experiment"] == "report-test"
        assert payload["description"] == "report folding"
        table = payload["tables"][0]
        assert set(table) == {"title", "columns", "rows"}
        manifest = payload["manifest"]
        assert manifest["command"] == "sweep:report-test"
        assert manifest["duration_s"] == outcome.wall_s
        assert manifest["config"]["axes"] == {
            "capacitance_f": [68e-9, 150e-9]
        }

    def test_sweep_accounting_block(self):
        spec, outcome = _spec_and_outcome()
        sweep = outcome_payload(spec, outcome)["sweep"]
        assert sweep["points"] == 2
        assert sweep["executed"] == 2
        assert sweep["cached"] == 0
        assert sweep["failed"] == 0
        assert [run["index"] for run in sweep["runs"]] == [0, 1]
        assert all(len(run["key"]) == 64 for run in sweep["runs"])


class TestWriteResults:
    def test_writes_named_json(self, tmp_path):
        spec, outcome = _spec_and_outcome()
        path = write_results(spec, outcome, str(tmp_path / "results"))
        assert path.endswith("report-test.json")
        with open(path) as handle:
            payload = json.load(handle)
        assert payload["experiment"] == "report-test"
        assert payload["sweep"]["points"] == 2


class TestRender:
    def test_render_contains_table_and_summary(self):
        _, outcome = _spec_and_outcome()
        text = render_outcome(outcome, title="demo")
        assert text.startswith("demo")
        assert "point" in text
        assert "sweep: 2 point(s)" in text
