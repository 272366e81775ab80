"""Tests for the workload abstraction (abstract + functional modes)."""

import numpy as np
import pytest

from repro.isa.energy import EnergyModel, InstrClass
from repro.workloads.base import AbstractWorkload, FunctionalWorkload
from repro.workloads.suite import (
    build_kernel,
    expected_stream,
    make_functional_workload,
)


class TestAbstractWorkload:
    def test_advance_consumes_time_budget(self):
        workload = AbstractWorkload()
        result = workload.advance(1e-3)  # 1 ms at ~1.36 us/instr
        assert 600 < result.instructions < 1_000
        assert result.time_s <= 1e-3 + 1e-12

    def test_energy_proportional_to_instructions(self):
        workload = AbstractWorkload()
        first = workload.advance(1e-3)
        per_instr = first.energy_j / first.instructions
        assert per_instr == pytest.approx(workload.mean_instruction_energy_j())

    def test_time_credit_carries_over(self):
        """Tiny budgets must accumulate instead of being dropped."""
        workload = AbstractWorkload()
        tiny = workload.mean_instruction_time_s() / 4
        executed = sum(workload.advance(tiny).instructions for _ in range(8))
        assert executed >= 1

    def test_finishes_at_total_units(self):
        workload = AbstractWorkload(total_units=2, instructions_per_unit=100)
        result = workload.advance(1.0)
        assert workload.finished
        assert result.instructions == 200
        assert workload.units_completed == 2

    def test_snapshot_restore(self):
        workload = AbstractWorkload()
        workload.advance(1e-3)
        snap = workload.snapshot()
        progress = workload.progress_instructions
        workload.advance(1e-3)
        workload.restore(snap)
        assert workload.progress_instructions == progress

    def test_restart_unit_drops_partial_unit(self):
        workload = AbstractWorkload(instructions_per_unit=1_000)
        while workload.progress_instructions < 1_500:
            workload.advance(1e-4)
        workload.restart_unit()
        assert workload.progress_instructions == 1_000

    def test_restore_rejects_garbage(self):
        workload = AbstractWorkload()
        with pytest.raises(ValueError):
            workload.restore("not-an-int")

    def test_validation(self):
        with pytest.raises(ValueError):
            AbstractWorkload(instructions_per_unit=0)
        with pytest.raises(ValueError):
            AbstractWorkload(total_units=0)
        with pytest.raises(ValueError):
            AbstractWorkload(mix={})
        with pytest.raises(ValueError):
            AbstractWorkload().advance(-1.0)

    def test_custom_mix_changes_energy(self):
        div_heavy = AbstractWorkload(mix={InstrClass.DIV: 1.0})
        alu_only = AbstractWorkload(mix={InstrClass.ALU: 1.0})
        assert (
            div_heavy.mean_instruction_energy_j()
            > 3 * alu_only.mean_instruction_energy_j()
        )

    def test_pseudo_snapshot_words(self):
        """Abstract workloads expose 8 deterministic pseudo-register
        words (the register file must still be costed in backups)."""
        workload = AbstractWorkload()
        snap = workload.snapshot()
        words = workload.snapshot_words(snap)
        assert len(words) == 8
        assert words[0] == 0
        assert words == workload.snapshot_words(snap)
        workload.advance(1e-3)
        assert workload.snapshot_words(workload.snapshot()) != words
        # Corruption of pseudo registers cannot alter progress.
        assert workload.apply_snapshot_words(snap, [1] * 8) == snap


class TestFunctionalWorkload:
    def make(self, frames=1, size=8):
        build = build_kernel("sobel", size=size)
        return build, make_functional_workload(build, frames=frames)

    def test_runs_to_completion(self):
        build, workload = self.make()
        total = 0
        while not workload.finished:
            total += workload.advance(1e-2).instructions
        assert workload.units_completed == 1
        assert np.array_equal(
            np.array(workload.outputs, dtype=np.uint16), build.expected_output
        )

    def test_multi_frame_outputs_concatenate(self):
        build, workload = self.make(frames=3)
        while not workload.finished:
            workload.advance(1e-2)
        assert np.array_equal(
            np.array(workload.outputs, dtype=np.uint16),
            expected_stream(build, frames=3),
        )

    def test_zero_budget_executes_nothing(self):
        _, workload = self.make()
        result = workload.advance(0.0)
        assert result.instructions == 0

    def test_snapshot_restore_mid_frame(self):
        build, workload = self.make()
        workload.advance(5e-4)
        snap = workload.snapshot()
        outputs_at_snap = list(workload.outputs)
        workload.advance(5e-4)
        workload.restore(snap)
        assert list(workload.outputs) == outputs_at_snap
        while not workload.finished:
            workload.advance(1e-2)
        assert np.array_equal(
            np.array(workload.outputs, dtype=np.uint16), build.expected_output
        )

    def test_snapshot_words_roundtrip(self):
        _, workload = self.make()
        workload.advance(5e-4)
        snap = workload.snapshot()
        words = workload.snapshot_words(snap)
        assert len(words) == 8
        rebuilt = workload.apply_snapshot_words(snap, words)
        assert rebuilt[0].regs == snap[0].regs

    def test_apply_snapshot_words_keeps_r0_zero(self):
        _, workload = self.make()
        snap = workload.snapshot()
        rebuilt = workload.apply_snapshot_words(snap, [99] * 8)
        assert rebuilt[0].regs[0] == 0
        assert rebuilt[0].regs[1] == 99

    def test_restart_unit_preserves_prior_outputs(self):
        build, workload = self.make(frames=2)
        while workload.units_completed < 1:
            workload.advance(1e-2)
        outputs_after_one = len(workload.outputs)
        workload.advance(2e-4)  # start frame 2
        workload.restart_unit()
        assert len(workload.outputs) >= outputs_after_one
        while not workload.finished:
            workload.advance(1e-2)
        assert np.array_equal(
            np.array(workload.outputs, dtype=np.uint16),
            expected_stream(build, frames=2),
        )

    def test_mean_energy_estimates_refine(self):
        _, workload = self.make()
        estimate_before = workload.mean_instruction_energy_j()
        workload.advance(1e-2)
        estimate_after = workload.mean_instruction_energy_j()
        assert estimate_before > 0
        assert estimate_after > 0

    def test_unit_instructions_estimate_after_first_frame(self):
        _, workload = self.make(frames=2)
        while workload.units_completed < 1:
            workload.advance(1e-2)
        assert workload.unit_instructions == 1579

    def test_stuck_program_detected(self):
        from repro.isa.assembler import assemble

        program = assemble("top: jmp top")
        workload = FunctionalWorkload(
            program, total_units=1, max_instructions_per_unit=1_000
        )
        with pytest.raises(RuntimeError, match="stuck"):
            while not workload.finished:
                workload.advance(1e-2)

    def test_validation(self):
        build = build_kernel("sobel", size=8)
        with pytest.raises(ValueError):
            FunctionalWorkload(build.program, total_units=0)


class TestSuiteHelpers:
    def test_unknown_kernel_rejected(self):
        with pytest.raises(KeyError):
            build_kernel("bogus")

    def test_expected_stream_validation(self):
        build = build_kernel("crc", length=16)
        with pytest.raises(ValueError):
            expected_stream(build, frames=0)
