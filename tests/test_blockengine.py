"""Block-compiled NV16 engine: bit-exactness against ``CPU.step``.

The block engine (`docs/isa.md`) promises that ``instructions_retired``,
``cycles``, ``energy_j`` (same left-to-right float adds), ``CPUState``
snapshots at *any* instruction boundary, and the MMIO output stream are
all bit-for-bit identical to pure ``step()`` looping.  These tests hold
it to that promise across the whole hand-written suite corpus plus the
NVC compiled-kernel corpus, including mid-block preemption
(backup/restore landing inside a basic block), ``restart_unit`` /
``clear_volatile`` semantics, fault parity, and the runaway-unit cap.
"""

import numpy as np
import pytest

from repro.isa import blockengine
from repro.isa.blockengine import MAX_BLOCK_LEN, BlockEngine
from repro.isa.cpu import CPU, ExecutionError
from repro.isa.energy import EnergyModel, InstrClass
from repro.isa.memory import MMIO_BASE
from repro.workloads.asmkit import assemble_kernel
from repro.workloads.base import FunctionalWorkload
from repro.workloads.compiled import NVC_KERNELS
from repro.workloads.suite import KERNELS, expected_stream

ALL_BUILDERS = dict(KERNELS)
ALL_BUILDERS.update(NVC_KERNELS)

#: Awkward advance budgets: tiny (sub-cycle), short (a few instructions,
#: guaranteeing mid-block stops), and long (many fused blocks per call).
BUDGETS = [1e-7, 3.7e-5, 2e-3, 1.1e-4, 8e-4, 5.3e-6, 9e-3]


@pytest.fixture
def scalar_engine_off():
    """Temporarily force the scalar interpreter (engine disabled)."""
    blockengine.set_enabled(False)
    try:
        yield
    finally:
        blockengine.set_enabled(True)


def make_pair(build, frames=2, energy_model=None):
    """Two identical workloads: one engine-driven, one scalar."""
    return tuple(
        FunctionalWorkload(
            build.program, total_units=frames, energy_model=energy_model
        )
        for _ in range(2)
    )


def memory_counters(memory):
    """The region access counters a memory map charges."""
    return (
        memory.ram_reads,
        memory.ram_writes,
        memory.nvm_reads,
        memory.nvm_writes,
    )


def workload_state(wl):
    """Everything observable about a functional workload, for equality."""
    cpu = wl.cpu
    return (
        list(cpu.state.regs),
        cpu.state.pc,
        cpu.state.halted,
        cpu.instructions_retired,
        cpu.cycles,
        cpu.energy_j,
        list(cpu.memory.output),
        memory_counters(cpu.memory),
        wl._retired,
        wl._unit_retired,
        wl._units_done,
        wl._time_credit_s,
    )


def advance_both(engine_wl, scalar_wl, budgets):
    """Drive both workloads with the same budget schedule, comparing
    the full advance result and workload state after every call."""
    assert blockengine.enabled()
    i = 0
    while not engine_wl.finished:
        budget = budgets[i % len(budgets)]
        i += 1
        a = engine_wl.advance(budget)
        blockengine.set_enabled(False)
        try:
            b = scalar_wl.advance(budget)
        finally:
            blockengine.set_enabled(True)
        assert (a.instructions, a.energy_j, a.time_s) == (
            b.instructions, b.energy_j, b.time_s
        )
        assert workload_state(engine_wl) == workload_state(scalar_wl)
        assert i < 500_000, "workload did not finish"
    assert scalar_wl.finished
    assert engine_wl.cpu.memory.dump_words(0, MMIO_BASE) == (
        scalar_wl.cpu.memory.dump_words(0, MMIO_BASE)
    )


class TestAdvanceBitExactness:
    """Engine-driven advance == scalar advance, across both corpora."""

    @pytest.mark.parametrize("name", sorted(ALL_BUILDERS))
    def test_full_run_identical(self, name):
        build = ALL_BUILDERS[name]()
        engine_wl, scalar_wl = make_pair(build)
        advance_both(engine_wl, scalar_wl, BUDGETS)
        reference = expected_stream(build, 2)
        produced = np.array(engine_wl.outputs, dtype=np.uint16)
        assert np.array_equal(produced, reference)

    @pytest.mark.parametrize("name", ["fir", "crc", "matmul", "dft"])
    def test_full_run_identical_at_odd_operating_point(self, name):
        """Per-instruction seconds and joules that need all 17
        significant digits: a compiled constant that did not round-trip
        would change the accumulated floats."""
        model = EnergyModel(frequency_hz=7e5, vdd=0.9)
        for value in (
            model.instruction_cycles(InstrClass.ALU) * model.cycle_time_s,
            model.instruction_energy(InstrClass.ALU),
        ):
            assert float(f"{value:.16g}") != value
        build = ALL_BUILDERS[name]()
        engine_wl, scalar_wl = make_pair(build, energy_model=model)
        advance_both(engine_wl, scalar_wl, BUDGETS)

    @pytest.mark.parametrize(
        "model",
        [EnergyModel(frequency_hz=7e5, vdd=0.9), EnergyModel(vdd=float("inf"))],
        ids=["17-digits", "infinite-joules"],
    )
    def test_fused_accounting_from_zero(self, model):
        """Every instruction class, fused from zero accumulators: a
        compiled constant one ulp off cannot round away in a long sum,
        and an infinite joule (the model accepts it) compiles too."""
        build = assemble_kernel(
            "classes",
            "    addi r1, r0, 7\n    mul r2, r1, r1\n    divu r3, r2, r1\n"
            "    li r5, 0x8000\n    st r3, 0(r5)\n    ld r4, 0(r5)\n"
            "    nop\n    beq r4, r3, next\nnext:\n    jal r0, done\n"
            "done:\n    halt\n",
        )
        program = build.program.instructions
        engine = BlockEngine(program, model)
        cpu = CPU(program, energy_model=model)
        segment = engine.run(cpu, 1.0, 0.0, 0.0, len(program))
        assert engine.profile_counts()["stepped"] == 0
        scalar = CPU(program, energy_model=model)
        time_used = energy = 0.0
        while not scalar.state.halted:
            info = scalar.step()
            time_used += info.cycles * model.cycle_time_s
            energy += info.energy_j
        assert (segment.time_used_s, segment.energy_j, cpu.energy_j) == (
            time_used, energy, scalar.energy_j
        )
        assert cpu.cycles == scalar.cycles

    def test_zero_and_subcycle_budgets(self):
        build = KERNELS["fir"]()
        engine_wl, scalar_wl = make_pair(build, frames=1)
        for budget in (0.0, 1e-9, 0.0, 5e-4, 0.0):
            a = engine_wl.advance(budget)
            blockengine.set_enabled(False)
            try:
                b = scalar_wl.advance(budget)
            finally:
                blockengine.set_enabled(True)
            assert (a.instructions, a.energy_j, a.time_s) == (
                b.instructions, b.energy_j, b.time_s
            )
            assert workload_state(engine_wl) == workload_state(scalar_wl)


class TestMidBlockPreemption:
    """Snapshots at every instruction boundary match scalar stepping."""

    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_lockstep_every_instruction(self, name):
        """run_count(1) == step(), compared after *every* instruction.

        This is the strongest boundary property: the engine lands on
        every dynamic instruction index of the kernel (almost all of
        them mid-block) with CPU state, counters and output stream
        identical to the scalar interpreter's.
        """
        build = ALL_BUILDERS[name]()
        engine_wl, scalar_wl = make_pair(build, frames=1)
        engine = engine_wl._engine()
        assert engine is not None
        steps = 0
        while not scalar_wl.cpu.state.halted and steps < 60_000:
            engine.run_count(engine_wl.cpu, 1)
            scalar_wl.cpu.step()
            steps += 1
            ec, sc = engine_wl.cpu, scalar_wl.cpu
            assert ec.state.regs == sc.state.regs, steps
            assert ec.state.pc == sc.state.pc, steps
            assert ec.state.halted == sc.state.halted, steps
            assert ec.instructions_retired == sc.instructions_retired
            assert ec.cycles == sc.cycles
            assert ec.energy_j == sc.energy_j, steps
            assert ec.memory.output == sc.memory.output
            assert memory_counters(ec.memory) == memory_counters(sc.memory)
        # Long kernels (median) stay bounded by the step cap; every
        # compared boundary still matched bit for bit.
        assert scalar_wl.cpu.state.halted or steps == 60_000

    @pytest.mark.parametrize("name", ["fir", "crc", "sobel", "matmul"])
    def test_backup_restore_at_arbitrary_boundaries(self, name):
        """A snapshot taken mid-block restores and completes identically.

        Lands the engine on a spread of dynamic instruction indices via
        run_count, snapshots through the workload's backup API, then
        restores into fresh engine-driven and scalar workloads and runs
        both to completion with the same budgets.
        """
        build = ALL_BUILDERS[name]()
        probe = FunctionalWorkload(build.program, total_units=1)
        engine = probe._engine()
        # Indices deliberately not aligned to anything: primes land
        # mid-block for every block layout.
        landed = 0
        for index in (1, 7, 97, 641, 1999, 4441):
            wl = FunctionalWorkload(build.program, total_units=1)
            try:
                engine.run_count(wl.cpu, index)
            except ExecutionError:
                continue  # kernel shorter than index: halted earlier
            landed += 1
            wl._unit_retired = index
            snap = wl.snapshot()

            engine_wl, scalar_wl = make_pair(build, frames=1)
            engine_wl.restore(snap)
            engine_wl._unit_retired = index
            scalar_wl.restore(snap)
            scalar_wl._unit_retired = index
            advance_both(engine_wl, scalar_wl, BUDGETS)
        assert landed >= 3

    def test_restore_into_other_engine_mode(self, scalar_engine_off):
        """A snapshot taken under the scalar interpreter resumes under
        the engine bit-identically (and vice versa, by symmetry of the
        other tests)."""
        build = KERNELS["crc"]()
        wl = FunctionalWorkload(build.program, total_units=1)
        for _ in range(315):
            wl.cpu.step()
        wl._unit_retired = 315
        snap = wl.snapshot()
        blockengine.set_enabled(True)
        engine_wl, scalar_wl = make_pair(build, frames=1)
        engine_wl.restore(snap)
        engine_wl._unit_retired = 315
        scalar_wl.restore(snap)
        scalar_wl._unit_retired = 315
        advance_both(engine_wl, scalar_wl, BUDGETS)


class TestVolatilitySemantics:
    """restart_unit / clear_volatile behave identically under the engine."""

    @pytest.mark.parametrize("name", ["fir", "histogram"])
    def test_clear_volatile_then_restart(self, name):
        build = ALL_BUILDERS[name]()
        engine_wl, scalar_wl = make_pair(build)
        a = engine_wl.advance(4e-4)
        blockengine.set_enabled(False)
        try:
            b = scalar_wl.advance(4e-4)
        finally:
            blockengine.set_enabled(True)
        assert (a.instructions, a.energy_j) == (b.instructions, b.energy_j)
        # Power failure: volatile RAM wiped, unit restarts from scratch.
        for wl in (engine_wl, scalar_wl):
            wl.clear_volatile()
            wl.restart_unit()
        assert workload_state(engine_wl) == workload_state(scalar_wl)
        advance_both(engine_wl, scalar_wl, BUDGETS)
        # restart_unit keeps already-emitted outputs (they were already
        # transmitted), so the reference stream is a suffix.
        reference = expected_stream(build, 2)
        produced = np.array(engine_wl.outputs, dtype=np.uint16)
        assert len(produced) >= len(reference)
        assert np.array_equal(produced[len(produced) - len(reference):],
                              reference)


class TestFaultParity:
    """The engine raises exactly what chained step() calls would."""

    def runaway(self):
        return assemble_kernel(
            "runaway", "loop:\n    ADDI r1, r1, 1\n    JAL r0, loop\n"
        )

    def off_end(self):
        # Falls off the end of the program: no HALT anywhere.
        return assemble_kernel("off-end", "ADDI r1, r1, 1\nADDI r2, r2, 2\n")

    def test_pc_out_of_bounds_matches_scalar(self):
        build = self.off_end()
        engine_wl, scalar_wl = make_pair(build, frames=1)
        with pytest.raises(ExecutionError) as engine_exc:
            engine_wl.advance(1e-3)
        blockengine.set_enabled(False)
        try:
            with pytest.raises(ExecutionError) as scalar_exc:
                scalar_wl.advance(1e-3)
        finally:
            blockengine.set_enabled(True)
        assert str(engine_exc.value) == str(scalar_exc.value)
        # Counters include every instruction retired before the fault,
        # and the raise left _retired/_time_credit_s untouched — the
        # same partially-mutated state a raising step() leaves behind.
        assert workload_state(engine_wl) == workload_state(scalar_wl)

    def test_runaway_unit_cap_matches_scalar(self):
        build = self.runaway()
        engine_wl = FunctionalWorkload(
            build.program, total_units=1, max_instructions_per_unit=1000
        )
        scalar_wl = FunctionalWorkload(
            build.program, total_units=1, max_instructions_per_unit=1000
        )
        with pytest.raises(RuntimeError) as engine_exc:
            engine_wl.advance(1.0)
        blockengine.set_enabled(False)
        try:
            with pytest.raises(RuntimeError) as scalar_exc:
                scalar_wl.advance(1.0)
        finally:
            blockengine.set_enabled(True)
        assert str(engine_exc.value) == str(scalar_exc.value)
        # The scalar cap fires *after* the offending instruction
        # executes (1001 retired); the engine mirrors that exactly.
        assert engine_wl.cpu.instructions_retired == 1001
        assert workload_state(engine_wl) == workload_state(scalar_wl)

    def test_halted_core_raise_matches_scalar(self):
        build = KERNELS["rle"]()
        engine = BlockEngine(build.program.instructions, EnergyModel())
        cpu = CPU(build.program.instructions)
        cpu.state.halted = True
        with pytest.raises(ExecutionError, match="halted core"):
            engine.run_count(cpu, 1)
        segment = engine.run(cpu, 1.0, 0.0, 0.0, 10)
        assert segment.fault is not None
        with pytest.raises(ExecutionError) as scalar_exc:
            cpu.step()
        assert str(segment.fault) == str(scalar_exc.value)


class TestCompilation:
    def test_long_spans_split_at_max_block_len(self):
        source = "\n".join(["    ADDI r1, r1, 1"] * 300) + "\nHALT\n"
        build = assemble_kernel("straight", source)
        engine = BlockEngine(build.program.instructions, EnergyModel())
        assert engine.n_blocks == 3  # 128 + 128 + (44 + HALT)
        for blk in engine._blocks:
            assert blk.n_instructions <= MAX_BLOCK_LEN
        # Dense pc -> block coverage.
        assert len(engine._block_at) == 301

    def test_profile_counts_track_fused_and_stepped(self):
        build = KERNELS["fir"]()
        wl = FunctionalWorkload(build.program, total_units=1)
        while not wl.finished:
            wl.advance(3.1e-4)
        counts = wl._block_engine.profile_counts()
        assert counts["blocks"] == wl._block_engine.n_blocks > 0
        assert counts["fused"] > 0
        assert counts["stepped"] > 0  # budget boundaries force tails

    def test_engine_cached_and_recompiled_on_model_change(self):
        build = KERNELS["fir"]()
        wl = FunctionalWorkload(build.program, total_units=1)
        first = wl._engine()
        assert wl._engine() is first
        wl.energy_model = wl.energy_model.scaled(frequency_hz=2e6)
        second = wl._engine()
        assert second is not first
        assert second.model_signature[0] == 2e6

    def test_disable_switch_mirrors_environment(self, scalar_engine_off):
        import os

        assert not blockengine.enabled()
        assert os.environ.get("NVPSIM_NO_BLOCK_ENGINE") == "1"
        build = KERNELS["fir"]()
        wl = FunctionalWorkload(build.program, total_units=1)
        assert wl._engine() is None
        blockengine.set_enabled(True)
        assert os.environ.get("NVPSIM_NO_BLOCK_ENGINE") is None
        assert wl._engine() is not None

    @pytest.mark.parametrize("fails", [False, True])
    def test_simulate_flag_restores_the_switch(self, fails, capsys,
                                               monkeypatch):
        """``simulate --no-block-engine`` turns the engine off for its
        own run only, also when the run raises."""
        import os

        from repro import cli
        from repro.system.simulator import SystemSimulator

        seen = []
        run = SystemSimulator.run

        def checked(simulator):
            seen.append(blockengine.enabled())
            if fails:
                raise RuntimeError("run failed")
            return run(simulator)

        monkeypatch.setattr(SystemSimulator, "run", checked)
        monkeypatch.delenv("NVPSIM_NO_BLOCK_ENGINE", raising=False)
        argv = ["simulate", "--kernel", "crc", "--duration", "0.2",
                "--no-block-engine"]
        if fails:
            with pytest.raises(RuntimeError, match="run failed"):
                cli.main(argv)
        else:
            assert cli.main(argv) == 0
        capsys.readouterr()
        assert seen == [False]
        assert blockengine.enabled()
        assert "NVPSIM_NO_BLOCK_ENGINE" not in os.environ


class TestCapabilityProtocol:
    def test_functional_workload_advertises_isa(self):
        build = KERNELS["fir"]()
        wl = FunctionalWorkload(build.program, total_units=1)
        assert wl.supports_exact_batch == "isa"

    def test_overriding_subclass_opts_out(self):
        class Custom(FunctionalWorkload):
            def advance(self, time_budget_s):
                return super().advance(time_budget_s)

        build = KERNELS["fir"]()
        assert Custom(build.program, total_units=1).supports_exact_batch is None

    def test_plain_subclass_keeps_isa_mode(self):
        class Plain(FunctionalWorkload):
            pass

        build = KERNELS["fir"]()
        assert Plain(build.program, total_units=1).supports_exact_batch == "isa"

    def test_advance_bounds_are_conservative(self):
        build = KERNELS["crc"]()
        wl = FunctionalWorkload(build.program, total_units=1)
        min_time, max_time, max_power = wl.advance_bounds()
        assert 0.0 < min_time <= max_time
        assert max_power > 0.0
        budget = 1e-3
        adv = wl.advance(budget)
        assert adv.instructions <= budget / min_time + 1
        assert adv.energy_j <= (budget + max_time) * max_power
