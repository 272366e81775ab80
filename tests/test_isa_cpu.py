"""Unit tests for the NV16 behavioral core."""

import pytest
from hypothesis import given, strategies as st

from repro.isa.assembler import assemble
from repro.isa.cpu import CPU, CPUState, ExecutionError
from repro.isa.energy import EnergyModel, InstrClass
from repro.isa.instructions import Instruction, Opcode, to_signed


def run_asm(source, max_instructions=100_000):
    prog = assemble(source)
    cpu = CPU(prog.instructions)
    cpu.memory.load_image(prog.data_image)
    cpu.run(max_instructions=max_instructions)
    return cpu


def reg_after(source, reg):
    return run_asm(source).state.regs[reg]


class TestALUSemantics:
    def test_add_wraps_16_bits(self):
        assert reg_after("li r1, 0xFFFF\naddi r1, r1, 2\nhalt", 1) == 1

    def test_sub_wraps(self):
        assert reg_after("li r1, 0\naddi r1, r1, -1\nhalt", 1) == 0xFFFF

    def test_logic_ops(self):
        cpu = run_asm(
            """
            li r1, 0xF0F0
            li r2, 0x0FF0
            and r3, r1, r2
            or  r4, r1, r2
            xor r5, r1, r2
            halt
            """
        )
        assert cpu.state.regs[3] == 0x00F0
        assert cpu.state.regs[4] == 0xFFF0
        assert cpu.state.regs[5] == 0xFF00

    def test_shifts(self):
        cpu = run_asm(
            """
            li r1, 0x8001
            shli r2, r1, 1
            shri r3, r1, 1
            sari r4, r1, 1
            halt
            """
        )
        assert cpu.state.regs[2] == 0x0002
        assert cpu.state.regs[3] == 0x4000
        assert cpu.state.regs[4] == 0xC000  # arithmetic preserves the sign bit

    def test_shift_amount_is_mod_16(self):
        assert reg_after("li r1, 3\nli r2, 17\nshl r3, r1, r2\nhalt", 3) == 6

    def test_mul_and_mulh(self):
        cpu = run_asm(
            """
            li r1, 300
            li r2, 300
            mul r3, r1, r2
            mulh r4, r1, r2
            halt
            """
        )
        assert cpu.state.regs[3] == (300 * 300) & 0xFFFF
        assert cpu.state.regs[4] == (300 * 300) >> 16

    def test_divu_remu(self):
        cpu = run_asm(
            """
            li r1, 100
            li r2, 7
            divu r3, r1, r2
            remu r4, r1, r2
            halt
            """
        )
        assert cpu.state.regs[3] == 14
        assert cpu.state.regs[4] == 2

    def test_division_by_zero_is_defined(self):
        cpu = run_asm(
            """
            li r1, 100
            divu r3, r1, r0
            remu r4, r1, r0
            halt
            """
        )
        assert cpu.state.regs[3] == 0xFFFF
        assert cpu.state.regs[4] == 100

    def test_slt_signed_vs_unsigned(self):
        cpu = run_asm(
            """
            li r1, 0xFFFF     ; -1 signed, 65535 unsigned
            li r2, 1
            slt  r3, r1, r2
            sltu r4, r1, r2
            halt
            """
        )
        assert cpu.state.regs[3] == 1  # -1 < 1
        assert cpu.state.regs[4] == 0  # 65535 > 1

    def test_lui(self):
        assert reg_after("lui r1, 0xAB\nhalt", 1) == 0xAB00

    def test_r0_is_hardwired_zero(self):
        cpu = run_asm("li r0, 99\nadd r0, r0, r0\nhalt")
        assert cpu.state.regs[0] == 0


class TestControlFlow:
    def test_branch_taken_and_not_taken(self):
        cpu = run_asm(
            """
            li r1, 5
            li r2, 5
            beq r1, r2, equal
            li r3, 111
            halt
            equal:
            li r3, 222
            halt
            """
        )
        assert cpu.state.regs[3] == 222

    def test_signed_branch(self):
        cpu = run_asm(
            """
            li r1, 0xFFFF      ; -1
            blt r1, r0, neg
            li r3, 1
            halt
            neg:
            li r3, 2
            halt
            """
        )
        assert cpu.state.regs[3] == 2

    def test_unsigned_branch(self):
        cpu = run_asm(
            """
            li r1, 0xFFFF
            bltu r1, r0, taken
            li r3, 1
            halt
            taken:
            li r3, 2
            halt
            """
        )
        assert cpu.state.regs[3] == 1  # 65535 is not < 0 unsigned

    def test_call_and_return(self):
        cpu = run_asm(
            """
            jmp main
            double:
            add r2, r1, r1
            ret
            main:
            li r1, 21
            call double
            halt
            """
        )
        assert cpu.state.regs[2] == 42

    def test_jal_saves_return_address(self):
        cpu = run_asm("jal r5, target\nnop\ntarget: halt")
        assert cpu.state.regs[5] == 1

    def test_loop_counts(self):
        cpu = run_asm(
            """
            li r1, 0
            li r2, 10
            loop:
            inc r1
            blt r1, r2, loop
            halt
            """
        )
        assert cpu.state.regs[1] == 10


class TestMemoryOps:
    def test_store_then_load(self):
        cpu = run_asm(
            """
            li r1, 0x8000
            li r2, 1234
            st r2, 0(r1)
            ld r3, 0(r1)
            halt
            """
        )
        assert cpu.state.regs[3] == 1234

    def test_data_image_visible(self):
        assert (
            reg_after(
                ".data 0x8000\nv: .word 777\n.text\nld r1, v(r0)\nhalt", 1
            )
            == 777
        )

    def test_mmio_output(self):
        cpu = run_asm("li r1, 0xF000\nli r2, 42\nst r2, 0(r1)\nhalt")
        assert cpu.memory.output == [42]


class TestExecutionControl:
    def test_halt_stops_run(self):
        cpu = run_asm("nop\nnop\nhalt")
        assert cpu.state.halted
        assert cpu.instructions_retired == 3

    def test_step_after_halt_raises(self):
        cpu = run_asm("halt")
        with pytest.raises(ExecutionError):
            cpu.step()

    def test_pc_out_of_range_raises(self):
        cpu = CPU(assemble("nop").instructions)
        cpu.step()
        with pytest.raises(ExecutionError, match="PC"):
            cpu.step()

    def test_run_respects_budget(self):
        prog = assemble("top: jmp top")
        cpu = CPU(prog.instructions)
        assert cpu.run(max_instructions=500) == 500
        assert not cpu.state.halted


class TestSnapshotRestore:
    def test_snapshot_roundtrip(self):
        cpu = run_asm("li r1, 7\nli r2, 9\nhalt")
        snap = cpu.snapshot()
        cpu.state = CPUState()
        assert cpu.state.regs[1] == 0
        cpu.restore(snap)
        assert cpu.state.regs[1] == 7
        assert cpu.state.halted

    def test_snapshot_is_independent_copy(self):
        cpu = run_asm("li r1, 7\nhalt")
        snap = cpu.snapshot()
        cpu.state.regs[1] = 99
        assert snap.regs[1] == 7

    def test_state_bits(self):
        assert CPUState().state_bits() == 8 * 16 + 16 + 1

    def test_mid_program_resume_equivalence(self):
        """Stopping and restoring mid-run must not change the result."""
        source = """
        li r1, 0
        li r2, 50
        loop:
        inc r1
        blt r1, r2, loop
        halt
        """
        prog = assemble(source)
        reference = CPU(prog.instructions)
        reference.run()

        cpu = CPU(prog.instructions)
        for _ in range(37):
            cpu.step()
        snap = cpu.snapshot()
        other = CPU(prog.instructions)
        other.restore(snap)
        other.run()
        assert other.state.regs == reference.state.regs


class TestAccounting:
    def test_cycles_and_energy_accumulate(self):
        cpu = run_asm("li r1, 1\nld r2, 0(r1)\nhalt")
        model = EnergyModel()
        expected_cycles = (
            model.instruction_cycles(InstrClass.ALU)
            + model.instruction_cycles(InstrClass.LOAD)
            + model.instruction_cycles(InstrClass.HALT)
        )
        assert cpu.cycles == expected_cycles
        assert cpu.energy_j == pytest.approx(
            model.instruction_energy(InstrClass.ALU)
            + model.instruction_energy(InstrClass.LOAD)
            + model.instruction_energy(InstrClass.HALT)
        )

    def test_step_info_fields(self):
        prog = assemble("jmp target\nnop\ntarget: halt")
        cpu = CPU(prog.instructions)
        info = cpu.step()
        assert info.pc_before == 0
        assert info.pc_after == 2
        assert info.instr_class is InstrClass.JUMP


@given(a=st.integers(0, 0xFFFF), b=st.integers(0, 0xFFFF))
def test_alu_matches_python_semantics(a, b):
    """Property: ADD/SUB/MUL/AND results equal mod-2^16 Python results."""
    cpu = CPU(
        [
            Instruction(Opcode.ADD, rd=3, rs1=1, rs2=2),
            Instruction(Opcode.SUB, rd=4, rs1=1, rs2=2),
            Instruction(Opcode.MUL, rd=5, rs1=1, rs2=2),
            Instruction(Opcode.AND, rd=6, rs1=1, rs2=2),
            Instruction(Opcode.HALT),
        ]
    )
    cpu.state.regs[1] = a
    cpu.state.regs[2] = b
    cpu.run()
    assert cpu.state.regs[3] == (a + b) & 0xFFFF
    assert cpu.state.regs[4] == (a - b) & 0xFFFF
    assert cpu.state.regs[5] == (a * b) & 0xFFFF
    assert cpu.state.regs[6] == a & b


@given(a=st.integers(0, 0xFFFF), b=st.integers(0, 0xFFFF))
def test_comparisons_match_python(a, b):
    cpu = CPU(
        [
            Instruction(Opcode.SLT, rd=3, rs1=1, rs2=2),
            Instruction(Opcode.SLTU, rd=4, rs1=1, rs2=2),
            Instruction(Opcode.HALT),
        ]
    )
    cpu.state.regs[1] = a
    cpu.state.regs[2] = b
    cpu.run()
    assert cpu.state.regs[3] == int(to_signed(a) < to_signed(b))
    assert cpu.state.regs[4] == int(a < b)
