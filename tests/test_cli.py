"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--platform", "nvp"],
            ["compare", "--duration", "3"],
            ["outages", "--source", "solar"],
            ["kernels"],
            ["techs"],
        ],
    )
    def test_valid_commands_parse(self, argv):
        args = build_parser().parse_args(argv)
        assert callable(args.func)


class TestCommands:
    def test_techs_prints_catalog(self, capsys):
        assert main(["techs"]) == 0
        out = capsys.readouterr().out
        assert "FeRAM" in out
        assert "NOR-Flash" in out

    def test_kernels_lists_suite(self, capsys):
        assert main(["kernels"]) == 0
        out = capsys.readouterr().out
        for name in ("sobel", "median", "crc", "dft"):
            assert name in out

    def test_outages_reports_statistics(self, capsys):
        assert main(["outages", "--duration", "1", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "outages" in out
        assert "supply duty" in out

    def test_simulate_abstract(self, capsys):
        assert main([
            "simulate", "--platform", "nvp", "--duration", "1", "--seed", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "FP=" in out

    def test_simulate_kernel_bit_exact(self, capsys):
        assert main([
            "simulate", "--platform", "nvp", "--kernel", "crc",
            "--frames", "2", "--duration", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert "bit-exact" in out

    def test_simulate_with_mean_rescale(self, capsys):
        assert main([
            "simulate", "--duration", "1", "--mean-uw", "40",
        ]) == 0
        out = capsys.readouterr().out
        assert "mean=40uW" in out

    def test_compare_reports_ratio(self, capsys):
        assert main(["compare", "--duration", "2", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "nvp / wait-compute" in out

    def test_hybrid_source(self, capsys):
        assert main([
            "outages", "--source", "hybrid", "--duration", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "solar+thermal" in out


class TestToolchainCommands:
    @pytest.fixture
    def nvc_file(self, tmp_path):
        path = tmp_path / "prog.nvc"
        path.write_text(
            "int total;\n"
            "func main() { int i;\n"
            "  for (i = 0; i < 4; i = i + 1) { total = total + i; }\n"
            "  out(total); }\n"
        )
        return str(path)

    def test_compile_reports_size_and_lint(self, capsys, nvc_file):
        assert main(["compile", nvc_file]) == 0
        out = capsys.readouterr().out
        assert "instructions" in out
        assert "self-accumulate" in out  # 'total' accumulator flagged

    def test_compile_run_prints_outputs(self, capsys, nvc_file):
        assert main(["compile", nvc_file, "--run"]) == 0
        out = capsys.readouterr().out
        assert "outputs: [6]" in out

    def test_compile_emit_asm(self, capsys, nvc_file):
        assert main(["compile", nvc_file, "--emit-asm"]) == 0
        out = capsys.readouterr().out
        assert "fn_main:" in out

    def test_profile_kernel(self, capsys):
        assert main(["profile", "--kernel", "crc", "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "TOTAL" in out
        assert "bitloop" in out

    def test_profile_file(self, capsys, nvc_file):
        assert main(["profile", "--file", nvc_file]) == 0
        out = capsys.readouterr().out
        assert "TOTAL" in out

    def test_profile_needs_target(self, capsys):
        assert main(["profile"]) == 2


class TestJsonAndOptimize:
    def test_simulate_json(self, capsys):
        import json

        assert main(["simulate", "--duration", "1", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["label"] == "nvp"
        assert data["forward_progress"] > 0
        assert "state_time_s" in data

    def test_compile_optimize_flag(self, capsys, tmp_path):
        path = tmp_path / "opt.nvc"
        path.write_text("func main() { out(2 + 3 * 4); }\n")
        assert main(["compile", str(path), "-O", "--run"]) == 0
        out = capsys.readouterr().out
        assert "outputs: [14]" in out


class TestObservabilityFlags:
    """Every documented exporter flag is accepted and produces its file."""

    EXPORT_FLAGS = ("--trace", "--events", "--metrics", "--manifest")

    @pytest.mark.parametrize("command", ["simulate", "observe"])
    def test_help_documents_every_exporter_flag(self, capsys, command):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        for flag in self.EXPORT_FLAGS:
            assert flag in out

    @pytest.mark.parametrize("command", ["simulate", "observe"])
    def test_every_exporter_flag_produces_its_artifact(
        self, capsys, tmp_path, command
    ):
        paths = {
            "--trace": tmp_path / "trace.json",
            "--events": tmp_path / "events.jsonl",
            "--metrics": tmp_path / "metrics.csv",
            "--manifest": tmp_path / "manifest.json",
        }
        argv = [command, "--duration", "0.5", "--seed", "2"]
        for flag, path in paths.items():
            argv.extend([flag, str(path)])
        assert main(argv) == 0
        out = capsys.readouterr().out
        for flag, path in paths.items():
            assert path.exists(), f"{flag} produced no artifact"
            assert path.stat().st_size > 0
        for label in ("trace", "events", "metrics", "manifest"):
            assert label in out

    def test_instrumented_simulate_keeps_fast_path(self, capsys, tmp_path):
        """Exporter flags must not force the exact engine (PR 5)."""
        import json

        from repro.obs import load_chrome_trace

        trace_path = tmp_path / "trace.json"
        events_path = tmp_path / "events.jsonl"
        assert main([
            "simulate", "--duration", "1", "--seed", "2", "--json",
            "--trace", str(trace_path), "--events", str(events_path),
        ]) == 0
        instrumented = json.loads(capsys.readouterr().out)
        assert load_chrome_trace(str(trace_path))
        lines = [json.loads(line) for line in
                 events_path.read_text().splitlines()]
        assert all(record["name"] != "sim.tick" for record in lines)
        assert main(["simulate", "--duration", "1", "--seed", "2",
                     "--json"]) == 0
        plain = json.loads(capsys.readouterr().out)
        assert instrumented == plain

    def test_simulate_sample_stride_emits_samples(self, tmp_path):
        import json

        events_path = tmp_path / "events.jsonl"
        assert main([
            "simulate", "--duration", "0.5", "--seed", "2",
            "--sample-stride", "1000", "--events", str(events_path),
        ]) == 0
        names = [json.loads(line)["name"] for line in
                 events_path.read_text().splitlines()]
        assert names.count("sim.sample") == 5  # 5000 ticks / 1000

    def test_sweep_trace_writes_timeline(self, capsys, tmp_path):
        import json

        from repro.obs import load_chrome_trace

        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "name": "cli_trace_smoke",
            "base": {"source": "wristwatch", "duration_s": 0.2, "seed": 3},
            "axes": {"platform": ["nvp", "wait"]},
        }))
        trace_path = tmp_path / "sweep-trace.json"
        assert main([
            "sweep", str(spec), "--quiet", "--no-cache",
            "--trace", str(trace_path),
        ]) == 0
        assert "trace" in capsys.readouterr().out
        events = load_chrome_trace(str(trace_path))
        names = {event["name"] for event in events}
        assert "sweep" in names and "simulate" in names


class TestAllPlatformChoices:
    @pytest.mark.parametrize("platform", ["nvp", "wait", "checkpoint", "oracle"])
    def test_simulate_every_platform(self, capsys, platform):
        assert main([
            "simulate", "--platform", platform, "--duration", "1", "--seed", "4",
        ]) == 0
        out = capsys.readouterr().out
        assert "result" in out


class TestMalformedFlags:
    """A malformed trace/workload flag or interval exits 2 with one
    ``error:`` line naming its config key, before anything is built."""

    @pytest.mark.parametrize("argv, key", [
        (["simulate", "--duration", "nan"], "duration_s"),
        (["simulate", "--duration", "inf"], "duration_s"),
        (["simulate", "--duration", "0"], "duration_s"),
        (["simulate", "--duration", "-1"], "duration_s"),
        (["simulate", "--mean-uw", "nan"], "mean_uw"),
        (["simulate", "--mean-uw", "-5"], "mean_uw"),
        (["simulate", "--kernel", "crc", "--frames", "0"], "frames"),
        (["observe", "--duration", "nan"], "duration_s"),
        (["observe", "--interval", "nan"], "interval"),
        (["observe", "--interval", "inf"], "interval"),
        (["compare", "--duration", "0"], "duration_s"),
        (["compare", "--mean-uw", "nan"], "mean_uw"),
        (["outages", "--duration", "-1"], "duration_s"),
        (["simulate", "--seed", "-1"], "seed"),
    ])
    def test_one_error_line_exit_2(self, capsys, argv, key):
        # A flag check returns 2; a trace/workload flag exits with 2.
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        assert code == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1, lines
        assert lines[0].startswith("error: ")
        assert key in lines[0]
        assert captured.out == ""
