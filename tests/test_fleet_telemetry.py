"""Fleet telemetry: sampling, snapshots, correlation, watch CLI."""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.fleet import (
    FleetSpec,
    FleetTelemetry,
    build_power_segments,
    correlation_report,
    render_correlation,
    run_fleet,
)
from repro.fleet.telemetry import SNAPSHOT_SCHEMA
from repro.obs import EventBus
from repro.obs import events as ev
from repro.obs.export import read_snapshots
from tests.test_cli import assert_one_error_line_exit_2


def fleet_configs(n=4, duration_s=0.2, **base):
    data = {
        "name": "telemetry-fleet",
        "base": dict(
            {"platform": "nvp", "source": "rf", "duration_s": duration_s,
             "seed": 3, "mean_uw": 8.0},
            **base,
        ),
        "replicas": n,
        "stagger_s": duration_s / (2 * n),
    }
    return FleetSpec.from_dict(data).devices()


class TestFleetTelemetry:
    def test_rejects_bad_cadence(self):
        with pytest.raises(ValueError):
            FleetTelemetry(every_s=0.0)
        for every_s in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="every_s .* finite"):
                FleetTelemetry(every_s=every_s)

    def test_default_cadence_and_schema(self):
        telemetry = FleetTelemetry()
        outcome = run_fleet(fleet_configs(), telemetry=telemetry)
        assert outcome.failed == 0
        # ~50 samples across the longest trace, plus the final one.
        assert 40 <= telemetry.snapshots <= 60
        snap = telemetry.last
        assert snap["schema"] == SNAPSHOT_SCHEMA
        assert snap["final"] is True
        assert snap["devices"]["total"] == 4
        assert snap["devices"]["final"] == 4
        assert snap["states"] == {"final": 4}
        assert set(snap) >= {
            "tick", "t_s", "dt_s", "devices", "states", "energy_j",
            "progress", "counters", "outage",
        }

    def test_explicit_cadence_rounds_to_ticks(self):
        telemetry = FleetTelemetry(every_s=0.05)
        run_fleet(fleet_configs(duration_s=0.2), telemetry=telemetry)
        # 0.2 s trace + staggered offsets, 0.05 s cadence.
        assert telemetry.every_s == pytest.approx(0.05)
        assert 4 <= telemetry.snapshots <= 8

    def test_results_bit_identical_with_telemetry(self):
        configs = fleet_configs()
        plain = run_fleet(list(configs))
        observed = run_fleet(list(configs), telemetry=FleetTelemetry())
        for a, b in zip(plain.records, observed.records):
            assert a.result == b.result

    def test_final_snapshot_equals_fold_of_results(self):
        """The exact-aggregate contract: the final snapshot is the
        fold of the per-device results."""
        configs = fleet_configs(n=6)
        telemetry = FleetTelemetry()
        outcome = run_fleet(configs, telemetry=telemetry)
        results = [r.result for r in outcome.records]
        snap = telemetry.last
        assert snap["progress"]["forward_progress"] == sum(
            r["forward_progress"] for r in results
        )
        assert snap["counters"]["backups"] == sum(
            r["backups"] for r in results
        )
        assert snap["counters"]["restores"] == sum(
            r["restores"] for r in results
        )
        assert snap["progress"]["run_s_total"] == pytest.approx(
            sum(r["state_time_s"].get("run", 0.0) for r in results)
        )

    def test_jsonl_and_prom_outputs(self, tmp_path):
        out = str(tmp_path / "telemetry.jsonl")
        telemetry = FleetTelemetry(every_s=0.05, out=out)
        run_fleet(fleet_configs(), telemetry=telemetry)
        snaps = read_snapshots(out)
        assert len(snaps) == telemetry.snapshots
        assert snaps[-1]["final"] is True
        assert all(s["schema"] == SNAPSHOT_SCHEMA for s in snaps)
        ticks = [s["tick"] for s in snaps]
        assert ticks == sorted(ticks)
        prom = (tmp_path / "telemetry.jsonl.prom").read_text()
        assert "fleet_progress_forward_progress" in prom
        assert "fleet_devices_total 4" in prom

    def test_snapshots_are_deterministic(self, tmp_path):
        paths = []
        for run in ("a", "b"):
            out = str(tmp_path / f"{run}.jsonl")
            run_fleet(
                fleet_configs(),
                telemetry=FleetTelemetry(every_s=0.05, out=out),
            )
            paths.append(out)
        a, b = (open(p).read() for p in paths)
        assert a == b

    def test_emits_fleet_sample_events(self):
        bus = EventBus()
        log = bus.record(names=(ev.FLEET_SAMPLE,))
        telemetry = FleetTelemetry(every_s=0.05)
        run_fleet(fleet_configs(), bus=bus, telemetry=telemetry)
        events = list(log)
        assert len(events) == telemetry.snapshots
        assert events[-1].data["snapshot"]["final"] is True

    def test_summary_safe_when_never_bound(self):
        summary = FleetTelemetry().summary()
        assert summary["snapshots"] == 0
        assert summary["energy_j"] == {"count": 0}
        assert "final" not in summary

    def test_summary_after_run(self):
        telemetry = FleetTelemetry(every_s=0.05)
        outcome = run_fleet(fleet_configs(), telemetry=telemetry)
        summary = telemetry.summary()
        assert summary["snapshots"] == telemetry.snapshots
        assert summary["energy_j"]["count"] > 0
        assert summary["final"]["forward_progress"] == sum(
            r.result["forward_progress"] for r in outcome.records
        )
        # JSON-safe for the ledger/manifest.
        json.dumps(summary)


class TestCorrelationReport:
    def test_matrix_is_symmetric_with_unit_diagonal(self):
        configs = fleet_configs(n=5)
        report = correlation_report(configs)
        matrix = np.array(report["co_outage"])
        assert matrix.shape == (5, 5)
        assert np.allclose(matrix, matrix.T)
        assert np.allclose(np.diag(matrix), 1.0)
        assert 0.0 <= report["mean_co_outage"] <= 1.0
        assert report["schema"] == SNAPSHOT_SCHEMA
        assert report["n_windows"] == len(report["outage_fraction"])
        json.dumps(report)

    def test_same_offset_devices_are_perfectly_correlated(self):
        spec = FleetSpec.from_dict({
            "name": "twins",
            "base": {"platform": "nvp", "source": "rf", "duration_s": 0.2,
                     "seed": 3, "mean_uw": 8.0},
            "replicas": 2,
        })
        report = correlation_report(spec.devices())
        # Same trace, same offset: identical outage windows.
        assert report["co_outage"][0][1] == 1.0

    def test_needs_no_simulation(self):
        configs = fleet_configs(n=3)
        segments = build_power_segments(configs)
        report = correlation_report(configs, window_s=segments.dt_s * 50)
        assert report["window_ticks"] == 50
        assert report["n_devices"] == 3

    def test_storm_timeline_consistency(self):
        report = correlation_report(fleet_configs(n=4))
        for storm in report["storms"]:
            assert storm["peak_fraction"] >= report["storm_fraction"]
            assert storm["duration_s"] == pytest.approx(
                storm["end_s"] - storm["start_s"]
            )
        assert report["storm_seconds"] == pytest.approx(
            sum(s["duration_s"] for s in report["storms"])
        )

    def test_render_correlation(self):
        report = correlation_report(fleet_configs(n=3))
        text = render_correlation(report)
        assert "fleet.correlate: 3 device(s)" in text
        assert "timeline [" in text

    def test_rejects_bad_window(self):
        configs = fleet_configs(n=2)
        nan, inf = float("nan"), float("inf")
        # A window past the longest trace (0.2 s here) once padded
        # every mask to it: memory followed the window, and 1e305 was
        # an OverflowError.
        for name, values in (
            ("window_s", (-1.0, 0.0, nan, inf, 0.21, 1000.0, 1e305)),
            ("threshold_w", (nan, inf, -1.0)),
            ("storm_fraction", (nan, 2.0, -1.0)),
        ):
            for value in values:
                with pytest.raises(ValueError, match=name):
                    correlation_report(configs, **{name: value})

    def test_window_of_the_whole_trace_is_one_window(self):
        report = correlation_report(fleet_configs(n=2), window_s=0.2)
        assert report["n_windows"] == 1
        assert report["window_ticks"] == 2000


class TestSpecCadence:
    def test_spec_cadence_roundtrip(self):
        spec = FleetSpec.from_dict({
            "name": "t", "base": {"platform": "nvp"},
            "telemetry_every_s": 0.25,
        })
        assert spec.telemetry_every_s == 0.25

    def test_spec_cadence_validated(self):
        with pytest.raises(ValueError):
            FleetSpec.from_dict({
                "name": "t", "telemetry_every_s": 0.0,
            })
        with pytest.raises(ValueError, match="telemetry_every_s .* finite"):
            FleetSpec.from_dict({
                "name": "t", "telemetry_every_s": float("nan"),
            })


class TestWatchCli:
    @pytest.fixture
    def spec_file(self, tmp_path):
        path = tmp_path / "fleet.json"
        path.write_text(json.dumps({
            "name": "watch-fleet",
            "base": {"platform": "nvp", "source": "rf", "duration_s": 0.2,
                     "seed": 3, "mean_uw": 8.0},
            "replicas": 3,
            "stagger_s": 0.03,
            "telemetry_every_s": 0.05,
        }))
        return str(path)

    @pytest.fixture
    def cache_dir(self, tmp_path, monkeypatch):
        path = tmp_path / "cache"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(path))
        monkeypatch.delenv("REPRO_LEDGER_DIR", raising=False)
        return path

    def test_run_with_telemetry_out(
        self, spec_file, cache_dir, tmp_path, capsys
    ):
        out = tmp_path / "tel.jsonl"
        assert main([
            "fleet", "run", spec_file, "--telemetry-out", str(out),
        ]) == 0
        printed = capsys.readouterr().out
        assert "telemetry:" in printed
        snaps = read_snapshots(str(out))
        assert snaps and snaps[-1]["final"] is True
        assert (tmp_path / "tel.jsonl.prom").exists()

    def test_telemetry_lands_in_ledger_and_results(
        self, spec_file, cache_dir, tmp_path, capsys
    ):
        from repro.obs.ledger import RunLedger

        results = tmp_path / "results"
        assert main([
            "fleet", "run", spec_file, "--telemetry-every", "0.1",
            "--results-dir", str(results),
        ]) == 0
        record = RunLedger.from_env().records(command="fleet")[-1]
        assert record["telemetry"]["snapshots"] >= 2
        assert record["telemetry"]["every_s"] == pytest.approx(0.1)
        payload = json.loads((results / "watch-fleet.json").read_text())
        assert payload["fleet"]["telemetry"]["snapshots"] >= 2
        assert (
            payload["manifest"]["extra"]["telemetry"]["snapshots"] >= 2
        )
        capsys.readouterr()
        assert main(["runs", "show", record["id"]]) == 0
        assert "telemetry   :" in capsys.readouterr().out

    def test_watch_piped_is_line_buffered_plain_text(
        self, spec_file, cache_dir, capsys
    ):
        assert main(["fleet", "watch", spec_file]) == 0
        out = capsys.readouterr().out
        # capsys is not a TTY: the dashboard degrades to plain lines.
        assert "\x1b" not in out
        assert "\r" not in out
        dashboard = [l for l in out.splitlines() if l.startswith("fleet ")]
        assert len(dashboard) >= 3
        assert any("done" in line for line in dashboard)
        assert any(line.startswith("fleet   :") for line in out.splitlines())

    def test_watch_interrupt_writes_interrupted_ledger(
        self, spec_file, cache_dir, monkeypatch, capsys
    ):
        from repro.obs.ledger import RunLedger

        def explode(configs, cache=None, bus=None, telemetry=None):
            raise KeyboardInterrupt

        monkeypatch.setattr("repro.fleet.run_fleet", explode)
        assert main(["fleet", "watch", spec_file]) == 130
        record = RunLedger.from_env().records(command="fleet-watch")[-1]
        assert record["outcome"] == "interrupted"
        assert record["n_devices"] == 3
        assert record["telemetry"]["snapshots"] == 0

    def test_runs_list_devices_min(self, spec_file, cache_dir, capsys):
        assert main(["fleet", "run", spec_file, "--quiet"]) == 0
        capsys.readouterr()
        assert main(["runs", "list", "--devices-min", "3"]) == 0
        assert "watch-fleet" in capsys.readouterr().out
        assert main(["runs", "list", "--devices-min", "100"]) == 0
        assert "no matching" in capsys.readouterr().out

    def test_correlate_json(self, spec_file, capsys):
        assert main(["fleet", "correlate", spec_file, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        matrix = np.array(report["co_outage"])
        assert np.allclose(matrix, matrix.T)
        assert np.allclose(np.diag(matrix), 1.0)

    @pytest.mark.parametrize("flag, value", [
        ("--window", "inf"), ("--window", "nan"),
        ("--threshold", "nan"), ("--threshold", "-1"),
        ("--storm-fraction", "2"),
    ])
    def test_correlate_rejects_malformed_flags(
        self, spec_file, capsys, flag, value
    ):
        # --window inf was an OverflowError traceback once, and a NaN
        # threshold reported a fleet with no outages.
        assert_one_error_line_exit_2(
            capsys, ["fleet", "correlate", spec_file, flag, value], flag
        )

    @pytest.mark.parametrize("value", ["1000", "1e305"])
    def test_correlate_rejects_a_window_past_the_trace(self, spec_file, value):
        # 1e305 was an OverflowError traceback once, and a window past
        # the trace sized memory by the window.  The limit is known
        # only once the device traces are built.
        with pytest.raises(SystemExit, match="^error: window_s must not"):
            main(["fleet", "correlate", spec_file, "--window", value])

    def test_correlate_renders_and_writes(
        self, spec_file, tmp_path, capsys
    ):
        out = tmp_path / "corr.json"
        assert main([
            "fleet", "correlate", spec_file, "--out", str(out),
            "--window", "0.01",
        ]) == 0
        printed = capsys.readouterr().out
        assert "fleet.correlate: 3 device(s)" in printed
        report = json.loads(out.read_text())
        assert report["n_devices"] == 3
