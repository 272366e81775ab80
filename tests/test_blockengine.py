"""Block-compiled NV16 engine: bit-exactness against ``CPU.step``.

The block engine (`docs/isa.md`) promises that ``instructions_retired``,
``cycles``, ``energy_j`` (same left-to-right float adds), ``CPUState``
snapshots at *any* instruction boundary, and the MMIO output stream are
all bit-for-bit identical to pure ``step()`` looping.  These tests hold
it to that promise across the whole hand-written suite corpus plus the
NVC compiled-kernel corpus, including mid-block preemption
(backup/restore landing inside a basic block), ``restart_unit`` /
``clear_volatile`` semantics, fault parity, and the runaway-unit cap.

``BlockEngine.run`` steps the C loop when the native kernels are built
and the generated blocks otherwise.  Each class of these tests runs on
the default backend, and its ``OnBlocks`` subclass runs it again on the
blocks.
"""

import math

import numpy as np
import pytest

from repro import native
from repro.isa.blockengine import MAX_BLOCK_LEN, BlockEngine, Interpreter
from repro.isa.cpu import CPU, ExecutionError
from repro.isa.energy import EnergyModel, InstrClass
from repro.isa.memory import MMIO_BASE
from repro.native import reference
from repro.workloads.asmkit import assemble_kernel
from repro.workloads.base import AbstractWorkload, FunctionalWorkload
from repro.workloads.suite import KERNELS, expected_stream
from tests.nvc_kernels import NVC_KERNELS

ALL_BUILDERS = dict(KERNELS)
ALL_BUILDERS.update(NVC_KERNELS)

#: Awkward advance budgets: tiny (sub-cycle), short (a few instructions,
#: guaranteeing mid-block stops), and long (many fused blocks per call).
BUDGETS = [1e-7, 3.7e-5, 2e-3, 1.1e-4, 8e-4, 5.3e-6, 9e-3]


def on_blocks(monkeypatch):
    """Run ``BlockEngine`` on its generated blocks: the fallback when the
    native kernels cannot be built."""
    monkeypatch.setattr(native, "kernels", lambda: reference)


@pytest.fixture
def blocks(monkeypatch):
    """The generated blocks, when the default backend is the C loop."""
    if native.kernels().BACKEND != "native":
        pytest.skip("the default backend already runs the blocks")
    on_blocks(monkeypatch)


def on_c_loop():
    """Whether ``BlockEngine.run`` steps the C loop here."""
    return native.kernels().BACKEND == "native"


def make_pair(build, frames=2, energy_model=None):
    """Two identical workloads: one on the block engine, one on the
    interpreter."""
    return tuple(
        FunctionalWorkload(
            build.program, total_units=frames, energy_model=energy_model,
            block_engine=block_engine,
        )
        for block_engine in (True, False)
    )


def land(engine, cpu, count):
    """Run exactly ``count`` instructions; ``False`` if it halted first.

    The cap trips after the instruction that passes it, so a cap of
    ``count - 1`` stops the segment on instruction ``count``.
    """
    return engine.run(cpu, math.inf, 0.0, 0.0, count - 1).capped


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
    i = 0
    while not engine_wl.finished:
        budget = budgets[i % len(budgets)]
        i += 1
        a = engine_wl.advance(budget)
        b = scalar_wl.advance(budget)
        assert (a.instructions, a.energy_j, a.time_s) == (
            b.instructions, b.energy_j, b.time_s
        )
        assert workload_state(engine_wl) == workload_state(scalar_wl)
        assert i < 500_000, "workload did not finish"
    assert scalar_wl.finished
    assert engine_wl.cpu.memory._words[:MMIO_BASE] == (
        scalar_wl.cpu.memory._words[:MMIO_BASE]
    )
    # The interpreter side never compiled: it is the reference.
    assert scalar_wl._block_engine is None


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
        scalar = CPU(program, energy_model=model)
        time_used = energy = 0.0
        while not scalar.state.halted:
            info = scalar.step()
            time_used += info.cycles * model.cycle_time_s
            energy += info.energy_j
        for runner in (engine, Interpreter()):
            cpu = CPU(program, energy_model=model)
            segment = runner.run(cpu, 1.0, 0.0, 0.0, len(program))
            assert (segment.time_used_s, segment.energy_j, cpu.energy_j) == (
                time_used, energy, scalar.energy_j
            )
            assert cpu.cycles == scalar.cycles
            assert segment.executed == scalar.instructions_retired
        counts = engine.profile_counts()
        assert counts["stepped"] == 0
        if on_c_loop():
            assert (counts["native"], counts["fused"]) == (1, 0)
        else:
            assert counts["native"] == 0 and counts["fused"] > 0

    def test_zero_and_subcycle_budgets(self):
        build = KERNELS["fir"]()
        engine_wl, scalar_wl = make_pair(build, frames=1)
        for budget in (0.0, 1e-9, 0.0, 5e-4, 0.0):
            a = engine_wl.advance(budget)
            b = scalar_wl.advance(budget)
            assert (a.instructions, a.energy_j, a.time_s) == (
                b.instructions, b.energy_j, b.time_s
            )
            assert workload_state(engine_wl) == workload_state(scalar_wl)


class TestMidBlockPreemption:
    """Snapshots at every instruction boundary match scalar stepping."""

    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_lockstep_every_instruction(self, name):
        """One capped instruction == step(), compared after *every*
        instruction.

        This is the strongest boundary property: the engine lands on
        every dynamic instruction index of the kernel (almost all of
        them mid-block) with CPU state, counters and output stream
        identical to the scalar interpreter's.
        """
        build = ALL_BUILDERS[name]()
        engine_wl, scalar_wl = make_pair(build, frames=1)
        engine = engine_wl._engine()
        steps = 0
        while not scalar_wl.cpu.state.halted and steps < 60_000:
            land(engine, engine_wl.cpu, 1)
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
        its cap, snapshots through the workload's backup API, then
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
            if not land(engine, wl.cpu, index):
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

    def test_restore_into_other_engine_mode(self):
        """A snapshot taken under the scalar interpreter resumes under
        the engine bit-identically (and vice versa, by symmetry of the
        other tests)."""
        build = KERNELS["crc"]()
        wl = FunctionalWorkload(build.program, total_units=1,
                                block_engine=False)
        for _ in range(315):
            wl.cpu.step()
        wl._unit_retired = 315
        snap = wl.snapshot()
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
        b = scalar_wl.advance(4e-4)
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
        with pytest.raises(ExecutionError) as scalar_exc:
            scalar_wl.advance(1e-3)
        assert str(engine_exc.value) == str(scalar_exc.value)
        # Counters include every instruction retired before the fault,
        # and the raise left _retired/_time_credit_s untouched — the
        # same partially-mutated state a raising step() leaves behind.
        assert workload_state(engine_wl) == workload_state(scalar_wl)

    def test_runaway_unit_cap_matches_scalar(self):
        build = self.runaway()
        engine_wl, scalar_wl = (
            FunctionalWorkload(
                build.program, total_units=1, max_instructions_per_unit=1000,
                block_engine=block_engine,
            )
            for block_engine in (True, False)
        )
        with pytest.raises(RuntimeError) as engine_exc:
            engine_wl.advance(1.0)
        with pytest.raises(RuntimeError) as scalar_exc:
            scalar_wl.advance(1.0)
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
        segments = [
            runner.run(cpu, 1.0, 0.0, 0.0, 10)
            for runner in (engine, Interpreter())
        ]
        with pytest.raises(ExecutionError) as scalar_exc:
            cpu.step()
        for segment in segments:
            assert segment.executed == 0
            assert str(segment.fault) == str(scalar_exc.value)


@pytest.mark.usefixtures("blocks")
class TestAdvanceBitExactnessOnBlocks(TestAdvanceBitExactness):
    """The same on the generated blocks."""


@pytest.mark.usefixtures("blocks")
class TestMidBlockPreemptionOnBlocks(TestMidBlockPreemption):
    """The same on the generated blocks."""


@pytest.mark.usefixtures("blocks")
class TestVolatilitySemanticsOnBlocks(TestVolatilitySemantics):
    """The same on the generated blocks."""


@pytest.mark.usefixtures("blocks")
class TestFaultParityOnBlocks(TestFaultParity):
    """The same on the generated blocks."""


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

    def test_profile_counts_track_fused_and_stepped(self, monkeypatch):
        on_blocks(monkeypatch)
        build = KERNELS["fir"]()
        wl = FunctionalWorkload(build.program, total_units=1)
        while not wl.finished:
            wl.advance(3.1e-4)
        counts = wl._block_engine.profile_counts()
        assert counts["blocks"] == wl._block_engine.n_blocks > 0
        assert counts["native"] == 0
        assert counts["fused"] > 0
        assert counts["stepped"] > 0  # budget boundaries force tails

    def test_profile_counts_track_native_segments(self):
        if not on_c_loop():
            pytest.skip(f"no working C compiler: {native.reason()}")
        build = KERNELS["fir"]()
        wl = FunctionalWorkload(build.program, total_units=1)
        calls = 0
        while not wl.finished:
            wl.advance(3.1e-4)
            calls += 1
        counts = wl._block_engine.profile_counts()
        # Every segment ran in C: FIR's only MMIO access is the output
        # port, so no segment fell back to the blocks.
        assert calls <= counts["native"]
        assert counts["fused"] == counts["stepped"] == 0

    def test_engine_compiled_once_and_cached(self):
        build = KERNELS["fir"]()
        wl = FunctionalWorkload(build.program, total_units=1)
        first = wl._engine()
        assert wl._engine() is first

    def test_energy_model_is_fixed_at_construction(self):
        """Reassigning the model would split the two executors (the
        live CPU keeps the old one), so it raises instead."""
        build = KERNELS["fir"]()
        model = EnergyModel()
        for wl in (
            FunctionalWorkload(build.program, energy_model=model),
            AbstractWorkload(energy_model=model),
        ):
            with pytest.raises(AttributeError):
                wl.energy_model = model.scaled(frequency_hz=2e6)
            assert wl.energy_model is model


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
        max_time, max_power = wl.advance_bounds()
        assert max_time > 0.0
        assert max_power > 0.0
        budget = 1e-3
        adv = wl.advance(budget)
        assert adv.energy_j <= (budget + max_time) * max_power
