"""Tests for the ``repro sweep`` subcommand and ``compare --jobs``."""

import json

import pytest

from repro.cli import build_parser, main


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({
        "name": "cli-sweep",
        "description": "tiny CLI sweep",
        "base": {"source": "wristwatch", "duration_s": 0.2, "seed": 11},
        "axes": {"capacitance_f": [6.8e-08, 1.5e-07]},
    }))
    return str(path)


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    path = tmp_path / "cache"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(path))
    return path


class TestParser:
    def test_sweep_parses(self, spec_file):
        args = build_parser().parse_args([
            "sweep", spec_file, "--jobs", "2", "--no-cache", "--fresh",
        ])
        assert args.jobs == 2
        assert args.no_cache and args.fresh
        assert callable(args.func)

    def test_compare_jobs_parses(self):
        args = build_parser().parse_args(["compare", "--jobs", "3"])
        assert args.jobs == 3


class TestSweepCommand:
    def test_runs_and_reports(self, spec_file, cache_dir, capsys):
        assert main(["sweep", spec_file]) == 0
        out = capsys.readouterr().out
        assert "cli-sweep" in out
        assert "2 executed, 0 cached" in out

    def test_second_run_all_cache_hits(self, spec_file, cache_dir, capsys):
        assert main(["sweep", spec_file]) == 0
        capsys.readouterr()
        assert main(["sweep", spec_file]) == 0
        out = capsys.readouterr().out
        assert "0 executed, 2 cached, 0 failed" in out

    def test_no_cache_ignores_cache(self, spec_file, cache_dir, capsys):
        assert main(["sweep", spec_file]) == 0
        capsys.readouterr()
        assert main(["sweep", spec_file, "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "2 executed, 0 cached" in out

    def test_fresh_clears_namespace(self, spec_file, cache_dir, capsys):
        assert main(["sweep", spec_file]) == 0
        capsys.readouterr()
        assert main(["sweep", spec_file, "--fresh"]) == 0
        out = capsys.readouterr().out
        assert "cleared 2" in out
        assert "2 executed, 0 cached" in out

    def test_results_dir_written(self, spec_file, cache_dir, tmp_path,
                                 capsys):
        results = tmp_path / "results"
        assert main([
            "sweep", spec_file, "--results-dir", str(results),
        ]) == 0
        with open(results / "cli-sweep.json") as handle:
            payload = json.load(handle)
        assert payload["experiment"] == "cli-sweep"
        assert payload["sweep"]["executed"] == 2

    def test_quiet_suppresses_progress(self, spec_file, cache_dir, capsys):
        assert main(["sweep", spec_file, "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "[  1/2]" not in out
        assert "sweep: 2 point(s)" in out

    def test_missing_spec_is_clean_error(self, cache_dir):
        with pytest.raises(SystemExit, match="cannot load spec"):
            main(["sweep", "/nonexistent/spec.json"])

    def test_bad_spec_is_clean_error(self, tmp_path, cache_dir):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"name": "x", "axes": {"nope": [1]}}))
        with pytest.raises(SystemExit, match="unknown config key"):
            main(["sweep", str(path)])

    @pytest.mark.parametrize("spec, key", [
        # Python's json reads a bare NaN literal as a float.
        ('{"name": "x", "base": {"capacitance_f": NaN}}', "capacitance_f"),
        ('{"name": "x", "base": {"platform": "wait", "energy_margin": NaN}}',
         "energy_margin"),
        ('{"name": "x", "axes": {"seed": 5}}', "seed"),
        ('{"name": "x", "base": {"nvp.backup_margin": NaN}}', "backup_margin"),
        ('{"name": "x", "base": {"kernel": "crc", "frames": 2.5}}', "frames"),
        ('{"name": "x", "base": {"nvp": {"technology": "SRAM"}}}',
         "volatile state technology"),
    ])
    def test_malformed_spec_is_clean_error(self, tmp_path, cache_dir, spec,
                                           key):
        path = tmp_path / "bad.json"
        path.write_text(spec)
        with pytest.raises(SystemExit, match=f"^error: .*{key}"):
            main(["sweep", str(path)])

    @pytest.mark.parametrize("timeout", ["nan", "inf", "-1"])
    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_malformed_timeout_is_clean_error(self, spec_file, cache_dir,
                                              timeout, jobs):
        # NaN and infinity once failed every point on a pool (``jobs``
        # 2) and were silently ignored in-process (``jobs`` 1).
        with pytest.raises(SystemExit, match="^error: .*timeout"):
            main(["sweep", spec_file, "--jobs", jobs, "--timeout", timeout])

    def test_jobs_1_fails_points_past_the_timeout(self, spec_file, cache_dir,
                                                  capsys):
        assert main(["sweep", spec_file, "--jobs", "1", "--timeout", "0.001",
                     "--no-cache"]) == 1
        out = capsys.readouterr().out
        assert "0 executed, 0 cached, 2 failed" in out
        assert out.count("timed out after 0.001s") >= 1

    def test_failed_points_set_exit_code(self, tmp_path, cache_dir, capsys):
        path = tmp_path / "fail.json"
        path.write_text(json.dumps({
            "name": "failing",
            "base": {"duration_s": 0.2, "seed": 1,
                     "source": "profile", "profile_index": 9},
        }))
        assert main(["sweep", str(path)]) == 1
        out = capsys.readouterr().out
        assert "1 failed" in out


class TestCompareJobs:
    def test_parallel_compare_matches_serial(self, capsys):
        assert main(["compare", "--duration", "1", "--seed", "5"]) == 0
        serial = capsys.readouterr().out
        assert main([
            "compare", "--duration", "1", "--seed", "5", "--jobs", "2",
        ]) == 0
        parallel = capsys.readouterr().out
        assert parallel == serial
        assert "nvp" in serial
