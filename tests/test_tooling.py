"""Tests for the profiler, intermittency linter and telemetry."""

import pytest

from repro.analysis.profiler import Profile, profile_program
from repro.harvest.sources import square_trace
from repro.isa.assembler import assemble
from repro.lang.lint import LintWarning, lint
from repro.system.presets import build_nvp
from repro.system.simulator import SystemSimulator
from repro.system.telemetry import STATE_CODES, Telemetry
from repro.workloads.base import AbstractWorkload
from repro.workloads.suite import build_kernel


class TestProfiler:
    def test_totals_match_cpu_accounting(self):
        build = build_kernel("crc", length=32)
        profile = profile_program(build.program)
        assert profile.halted
        assert profile.total_instructions == sum(
            e.instructions for e in profile.entries
        )
        assert profile.total_energy_j == pytest.approx(
            sum(e.energy_j for e in profile.entries)
        )

    def test_hot_loop_dominates(self):
        """CRC's bit loop must attract the lion's share of the energy."""
        build = build_kernel("crc", length=64)
        profile = profile_program(build.program)
        hottest = profile.entries[0]
        assert hottest.label in ("bitloop", "byteloop")
        assert hottest.energy_j > 0.5 * profile.total_energy_j

    def test_by_class_breakdown_sums(self):
        build = build_kernel("fir", length=32)
        profile = profile_program(build.program)
        assert sum(e.instructions for e in profile.by_class.values()) == (
            profile.total_instructions
        )

    def test_entry_lookup(self):
        build = build_kernel("crc", length=16)
        profile = profile_program(build.program)
        assert profile.entry("main").instructions > 0
        with pytest.raises(KeyError):
            profile.entry("nonexistent")

    def test_report_renders(self):
        build = build_kernel("rle", length=32)
        text = profile_program(build.program).report()
        assert "TOTAL" in text
        assert "100.0%" in text

    def test_unlabelled_prefix_attributed_to_entry(self):
        program = assemble("nop\nlabelled: halt")
        profile = profile_program(program)
        assert profile.entry("<entry>").instructions == 1

    def test_profiles_compiled_nvc(self):
        from repro.lang.codegen import compile_source

        compiled = compile_source(
            """
            func work(n) { int i; int a;
                for (i = 0; i < n; i = i + 1) { a = a + i * i; }
                return a; }
            func main() { out(work(50)); }
            """
        )
        profile = profile_program(compiled.program)
        assert profile.halted
        # The generated for-loop label is the hottest region, and it
        # burns more than main's own straight-line code.
        hottest = profile.entries[0]
        assert "for" in hottest.label
        assert hottest.energy_j > profile.entry("fn_main").energy_j


class TestLint:
    def test_clean_kernel_has_no_warnings(self):
        source = """
        int src[8]; int dst[8];
        func main() {
            int i;
            for (i = 0; i < 8; i = i + 1) { dst[i] = src[i] * 2; }
        }
        """
        assert lint(source) == []

    def test_histogram_pattern_flagged_as_self_accumulate(self):
        source = """
        int data[16]; int hist[4];
        func main() {
            int i;
            for (i = 0; i < 16; i = i + 1) {
                hist[data[i] >> 6] = hist[data[i] >> 6] + 1;
            }
        }
        """
        warnings = lint(source)
        assert any(
            w.kind == "self-accumulate" and w.name == "hist" for w in warnings
        )

    def test_scalar_accumulator_flagged(self):
        source = "int total; func main() { total = total + 1; }"
        (warning,) = lint(source)
        assert warning.kind == "self-accumulate"
        assert warning.name == "total"

    def test_read_modify_write_across_statements(self):
        source = """
        int state;
        func main() {
            int t;
            t = state;
            state = t + 1;
        }
        """
        warnings = lint(source)
        assert any(w.kind == "read-modify-write" for w in warnings)

    def test_local_accumulator_is_fine(self):
        source = """
        func main() {
            int acc; int i;
            for (i = 0; i < 4; i = i + 1) { acc = acc + i; }
            out(acc);
        }
        """
        assert lint(source) == []

    def test_write_only_global_is_fine(self):
        source = "int result; func main() { result = 42; }"
        assert lint(source) == []

    def test_warning_carries_location(self):
        source = "int x;\nfunc f() { x = x + 1; }\nfunc main() { f(); }"
        (warning,) = lint(source)
        assert warning.function == "f"
        assert warning.line == 2


class TestTelemetry:
    def run_with_telemetry(self, decimation=1):
        trace = square_trace(
            high_w=800e-6, low_w=0.0, period_s=0.05, duty=0.5, duration_s=0.5
        )
        telemetry = Telemetry(decimation=decimation)
        platform = build_nvp(AbstractWorkload())
        SystemSimulator(
            trace, platform, stop_when_finished=False, telemetry=telemetry
        ).run()
        return telemetry, trace

    def test_records_every_tick(self):
        telemetry, trace = self.run_with_telemetry()
        assert len(telemetry) == len(trace)

    def test_decimation(self):
        telemetry, trace = self.run_with_telemetry(decimation=10)
        assert len(telemetry) == len(trace) // 10

    def test_energy_series_tracks_storage(self):
        telemetry, _ = self.run_with_telemetry()
        energy = telemetry.energy_series()
        assert energy.min() >= 0.0
        assert energy.max() > 0.0

    def test_state_transitions_observed(self):
        telemetry, _ = self.run_with_telemetry()
        codes = set(telemetry.state_series().tolist())
        assert STATE_CODES["off"] in codes
        assert STATE_CODES["run"] in codes
        assert telemetry.transitions() >= 4

    def test_duty_cycle_between_zero_and_one(self):
        telemetry, _ = self.run_with_telemetry()
        assert 0.0 < telemetry.duty_cycle() < 1.0

    def test_decimation_validation(self):
        with pytest.raises(ValueError):
            Telemetry(decimation=0)
