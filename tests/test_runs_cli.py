"""End-to-end tests for ledger recording and ``repro runs``."""

import json

import pytest

from repro.cli import main
from repro.obs.ledger import RunLedger
from tests.test_cli import assert_one_error_line_exit_2


@pytest.fixture
def env(tmp_path, monkeypatch):
    """Cache and ledger co-located under one tmp root (the default)."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_LEDGER_DIR", raising=False)
    return tmp_path


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({
        "name": "runs-cli",
        "base": {"source": "wristwatch", "duration_s": 0.2, "seed": 11},
        "axes": {"capacitance_f": [6.8e-08, 1.5e-07]},
    }))
    return str(path)


class TestSweepRecording:
    def test_sweep_appends_and_prints_ledger_line(self, env, spec_file,
                                                  capsys):
        assert main(["sweep", spec_file, "--quiet"]) == 0
        out = capsys.readouterr().out
        (record,) = RunLedger.from_env().records()
        assert f"ledger  : {record['id']} (ok)" in out
        assert record["command"] == "sweep"
        assert record["experiment"] == "runs-cli"
        assert record["points"] == {
            "total": 2, "executed": 2, "cached": 0, "failed": 0,
            "interrupted": 0,
        }
        assert record["cache"]["hit_rate"] == 0.0
        assert record["resources"]["cpu_s"] >= 0.0
        assert len(record["runs"]) == 2

    def test_second_sweep_records_full_cache_hit(self, env, spec_file,
                                                 capsys):
        assert main(["sweep", spec_file, "--quiet"]) == 0
        assert main(["sweep", spec_file, "--quiet"]) == 0
        capsys.readouterr()
        first, second = RunLedger.from_env().records()
        assert second["cache"] == {"hits": 2, "misses": 0, "hit_rate": 1.0}
        assert second["points"]["executed"] == 0
        assert second["spec_hash"] == first["spec_hash"]

    def test_simulate_records(self, env, capsys):
        assert main(["simulate", "--duration", "0.2"]) == 0
        out = capsys.readouterr().out
        (record,) = RunLedger.from_env().records(command="simulate")
        assert f"ledger  : {record['id']}" in out
        assert record["outcome"] == "ok"
        assert record["spec_hash"]
        assert record["resources"]["cpu_s"] >= 0.0

    def test_simulate_json_stdout_stays_pure(self, env, capsys):
        assert main(["simulate", "--duration", "0.2", "--json"]) == 0
        json.loads(capsys.readouterr().out)  # raises if polluted
        assert len(RunLedger.from_env().records(command="simulate")) == 1

    def test_compare_records(self, env, capsys):
        assert main(["compare", "--duration", "0.2"]) == 0
        capsys.readouterr()
        (record,) = RunLedger.from_env().records(command="compare")
        assert record["outcome"] == "ok"
        assert record["points"]["total"] == 4  # one per platform

    def test_disabled_ledger_means_no_line_no_file(self, env, spec_file,
                                                   monkeypatch, capsys):
        monkeypatch.setenv("REPRO_LEDGER_DIR", "")
        assert main(["sweep", spec_file, "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "ledger" not in out
        assert RunLedger.from_env() is None


class TestRunsList:
    def test_list_and_filters(self, env, spec_file, capsys):
        main(["sweep", spec_file, "--quiet"])
        main(["simulate", "--duration", "0.2"])
        capsys.readouterr()
        assert main(["runs", "list"]) == 0
        out = capsys.readouterr().out
        assert "runs-cli" in out
        assert "simulate" in out
        assert main(["runs", "list", "--command", "sweep"]) == 0
        out = capsys.readouterr().out
        assert "simulate" not in out
        assert main(["runs", "list", "--outcome", "error"]) == 0
        assert "no matching ledger records" in capsys.readouterr().out

    def test_list_json_and_limit(self, env, spec_file, capsys):
        main(["sweep", spec_file, "--quiet"])
        main(["sweep", spec_file, "--quiet"])
        capsys.readouterr()
        assert main(["runs", "list", "--json", "--limit", "1"]) == 0
        records = json.loads(capsys.readouterr().out)
        assert len(records) == 1
        assert records[0]["points"]["cached"] == 2  # the newest record

    def test_list_since_date(self, env, spec_file, capsys):
        main(["sweep", spec_file, "--quiet"])
        capsys.readouterr()
        assert main(["runs", "list", "--since", "2000-01-01"]) == 0
        assert "runs-cli" in capsys.readouterr().out
        assert main(["runs", "list", "--since", "2999-01-01"]) == 0
        assert "no matching" in capsys.readouterr().out

    def test_bad_date_is_clean_error(self, env, capsys):
        assert_one_error_line_exit_2(
            capsys, ["runs", "list", "--since", "yesterdayish"], "--since"
        )

    def test_disabled_ledger_exits_2(self, env, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_LEDGER_DIR", "")
        with pytest.raises(SystemExit) as info:
            main(["runs", "list"])
        assert info.value.code == 2

    def test_explicit_ledger_flag_overrides_disable(self, env, spec_file,
                                                    monkeypatch, capsys):
        main(["sweep", spec_file, "--quiet"])
        path = RunLedger.from_env().path
        monkeypatch.setenv("REPRO_LEDGER_DIR", "")
        capsys.readouterr()
        assert main(["runs", "--ledger", path, "list"]) == 0
        assert "runs-cli" in capsys.readouterr().out


class TestRunsShowDiff:
    def test_show_renders_record(self, env, spec_file, capsys):
        main(["sweep", spec_file, "--quiet"])
        capsys.readouterr()
        (record,) = RunLedger.from_env().records()
        assert main(["runs", "show", record["id"][:6]]) == 0
        out = capsys.readouterr().out
        assert record["id"] in out
        assert "2 total — 2 executed" in out
        assert "capacitance_f=6.8e-08" in out

    def test_show_json(self, env, spec_file, capsys):
        main(["sweep", spec_file, "--quiet"])
        capsys.readouterr()
        (record,) = RunLedger.from_env().records()
        assert main(["runs", "show", record["id"], "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["id"] == record["id"]

    def test_show_unknown_id_clean_error(self, env, spec_file):
        main(["sweep", spec_file, "--quiet"])
        with pytest.raises(SystemExit, match="no ledger record"):
            main(["runs", "show", "zzzzzz"])

    def test_diff_double_sweep_shows_full_hit(self, env, spec_file,
                                              capsys):
        main(["sweep", spec_file, "--quiet"])
        main(["sweep", spec_file, "--quiet"])
        capsys.readouterr()
        first, second = RunLedger.from_env().records()
        assert main(["runs", "diff", first["id"], second["id"]]) == 0
        out = capsys.readouterr().out
        assert "same spec" in out
        assert "cache hit : 0% -> 100% (+2 hits)" in out
        assert "2 executed, 0 cached" in out and "0 executed, 2 cached" in out

    def test_diff_json(self, env, spec_file, capsys):
        main(["sweep", spec_file, "--quiet"])
        main(["sweep", spec_file, "--quiet"])
        capsys.readouterr()
        first, second = RunLedger.from_env().records()
        assert main([
            "runs", "diff", first["id"], second["id"], "--json",
        ]) == 0
        diff = json.loads(capsys.readouterr().out)
        assert diff["same_spec"] is True
        assert diff["cache"]["hits_delta"] == 2


class TestRunsGc:
    def test_gc_prunes_after_cache_clear(self, env, spec_file, capsys):
        from repro.exp import ResultCache

        main(["sweep", spec_file, "--quiet"])
        capsys.readouterr()
        assert main(["runs", "gc", "--dry-run"]) == 0
        assert "would prune 0" in capsys.readouterr().out
        ResultCache().clear()
        assert main(["runs", "gc"]) == 0
        assert "pruned 1 record(s), kept 0" in capsys.readouterr().out
        assert RunLedger.from_env().records() == []

    def test_gc_keeps_uncached_compare_records(self, env, capsys):
        main(["compare", "--duration", "0.2"])
        capsys.readouterr()
        # compare never writes the result cache; its record is pure
        # invocation history and must survive gc.
        assert main(["runs", "gc"]) == 0
        assert "pruned 0" in capsys.readouterr().out
        (record,) = RunLedger.from_env().records(command="compare")
        assert record["uncached"] is True


class TestLiveFlag:
    def test_live_parses_and_degrades_when_piped(self, env, spec_file,
                                                 capsys):
        assert main(["sweep", spec_file, "--live"]) == 0
        out = capsys.readouterr().out
        # capsys stdout is not a TTY: plain line-buffered progress.
        assert "\x1b" not in out
        assert "live    :" in out
        assert "cache hit" in out

    def test_live_replaces_default_progress(self, env, spec_file, capsys):
        assert main(["sweep", spec_file, "--live"]) == 0
        out = capsys.readouterr().out
        assert "[  1/2]" not in out  # the plain per-point lines


class TestBenchReportJson:
    def test_json_artifact_written(self, tmp_path, capsys):
        from repro.obs.history import append_record

        history = tmp_path / "history.jsonl"
        append_record(str(history), "exp", {"speedup": 2.0}, run="a")
        append_record(str(history), "exp", {"speedup": 2.2}, run="b")
        out_json = tmp_path / "report.json"
        assert main([
            "bench-report", "--history", str(history),
            "--json", str(out_json),
        ]) == 0
        capsys.readouterr()
        data = json.loads(out_json.read_text())
        assert data["passed"] is True
        assert data["sections"][0]["experiment"] == "exp"
        metric = data["sections"][0]["metrics"][0]
        assert metric["metric"] == "speedup"
        assert metric["change"] == pytest.approx(0.1)
