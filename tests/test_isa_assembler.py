"""Unit tests for the NV16 assembler."""

import pytest
from hypothesis import given, strategies as st

from repro.isa.assembler import AssemblerError, assemble
from repro.isa.instructions import (
    BRANCH_OPCODES,
    IMM_MAX,
    IMM_MIN,
    IMMEDIATE_OPCODES,
    Instruction,
    Opcode,
)
from repro.isa.memory import NVM_BASE


def ops(source):
    return [i.opcode for i in assemble(source).instructions]


class TestBasicSyntax:
    def test_empty_source_is_empty_program(self):
        assert len(assemble("")) == 0

    def test_comments_are_ignored(self):
        src = """
        ; semicolon comment
        # hash comment
        // slash comment
        nop ; trailing
        """
        assert ops(src) == [Opcode.NOP]

    def test_three_operand_alu(self):
        prog = assemble("add r1, r2, r3")
        instr = prog.instructions[0]
        assert (instr.opcode, instr.rd, instr.rs1, instr.rs2) == (
            Opcode.ADD, 1, 2, 3,
        )

    def test_immediate_forms(self):
        prog = assemble("addi r1, r0, -5\nandi r2, r1, 0xFF")
        assert prog.instructions[0].imm == -5
        assert prog.instructions[1].imm == 0xFF

    def test_char_literal_immediate(self):
        prog = assemble("addi r1, r0, 'a'")
        assert prog.instructions[0].imm == ord("a")

    def test_register_aliases(self):
        prog = assemble("add sp, lr, zero")
        instr = prog.instructions[0]
        assert (instr.rd, instr.rs1, instr.rs2) == (7, 6, 0)

    def test_memory_operands(self):
        prog = assemble("ld r1, 4(r2)\nst r3, -2(r4)")
        load, store = prog.instructions
        assert (load.rd, load.rs1, load.imm) == (1, 2, 4)
        assert (store.rs2, store.rs1, store.imm) == (3, 4, -2)

    def test_case_insensitive_mnemonics(self):
        assert ops("ADD r1, r2, r3\nAdD r1, r2, r3") == [Opcode.ADD, Opcode.ADD]


class TestLabels:
    def test_forward_reference(self):
        prog = assemble("jmp end\nnop\nend: halt")
        assert prog.instructions[0].imm == 2

    def test_backward_reference(self):
        prog = assemble("top: nop\njmp top")
        assert prog.instructions[1].imm == 0

    def test_label_on_own_line(self):
        prog = assemble("loop:\n    nop\n    jmp loop")
        assert prog.symbols["loop"] == 0

    def test_multiple_labels_same_line(self):
        prog = assemble("a: b: nop")
        assert prog.symbols["a"] == prog.symbols["b"] == 0

    def test_duplicate_label_rejected(self):
        with pytest.raises(AssemblerError, match="duplicate"):
            assemble("x: nop\nx: nop")

    def test_undefined_symbol_rejected(self):
        with pytest.raises(AssemblerError, match="undefined"):
            assemble("jmp nowhere")

    def test_symbol_arithmetic(self):
        prog = assemble(
            """
            .data 0x8000
            arr: .word 1, 2, 3
            .text
            li r1, arr+2
            li r2, arr-1
            """
        )
        assert prog.instructions[0].imm == 0x8002
        assert prog.instructions[1].imm == 0x7FFF


class TestDataDirectives:
    def test_word_directive(self):
        prog = assemble(".data 0x8000\nvals: .word 1, 2, 0xFFFF")
        assert prog.data_image == {0x8000: 1, 0x8001: 2, 0x8002: 0xFFFF}

    def test_default_data_origin_is_nvm_base(self):
        prog = assemble(".data\nx: .word 9")
        assert prog.data_image == {NVM_BASE: 9}

    def test_space_directive_with_fill(self):
        prog = assemble(".data 0x9000\nbuf: .space 3, 7")
        assert prog.data_image == {0x9000: 7, 0x9001: 7, 0x9002: 7}

    def test_org_moves_cursor(self):
        prog = assemble(".data 0x8000\n.org 0x8010\nx: .word 5")
        assert prog.symbols["x"] == 0x8010

    def test_word_values_truncated_to_16_bits(self):
        prog = assemble(".data 0x8000\nx: .word 0x1FFFF")
        assert prog.data_image[0x8000] == 0xFFFF

    def test_word_outside_data_section_rejected(self):
        with pytest.raises(AssemblerError):
            assemble(".word 1")

    def test_instruction_in_data_section_rejected(self):
        with pytest.raises(AssemblerError):
            assemble(".data\nnop")

    def test_data_label_usable_as_load_offset(self):
        prog = assemble(
            """
            .data 0x8000
            val: .word 42
            .text
            ld r1, val(r0)
            """
        )
        assert prog.instructions[0].imm == 0x8000


class TestPseudoInstructions:
    def test_li_expands_to_addi(self):
        prog = assemble("li r3, 77")
        instr = prog.instructions[0]
        assert (instr.opcode, instr.rd, instr.rs1, instr.imm) == (
            Opcode.ADDI, 3, 0, 77,
        )

    def test_mov_expands_to_add(self):
        instr = assemble("mov r2, r5").instructions[0]
        assert (instr.opcode, instr.rd, instr.rs1, instr.rs2) == (
            Opcode.ADD, 2, 5, 0,
        )

    def test_jmp_call_ret(self):
        prog = assemble("f: ret\nmain: call f\njmp main")
        ret_i, call_i, jmp_i = prog.instructions
        assert (ret_i.opcode, ret_i.rs1) == (Opcode.JALR, 6)
        assert (call_i.opcode, call_i.rd, call_i.imm) == (Opcode.JAL, 6, 0)
        assert (jmp_i.opcode, jmp_i.rd, jmp_i.imm) == (Opcode.JAL, 0, 1)

    def test_inc_dec(self):
        prog = assemble("inc r1\ndec r1")
        assert prog.instructions[0].imm == 1
        assert prog.instructions[1].imm == -1

    def test_not_neg(self):
        prog = assemble("not r1, r2\nneg r3, r4")
        assert prog.instructions[0].opcode is Opcode.XORI
        assert prog.instructions[0].imm == 0xFFFF
        assert prog.instructions[1].opcode is Opcode.SUB
        assert prog.instructions[1].rs2 == 4

    def test_beqz_bnez(self):
        prog = assemble("x: beqz r1, x\nbnez r2, x")
        assert prog.instructions[0].opcode is Opcode.BEQ
        assert prog.instructions[1].opcode is Opcode.BNE

    def test_swapped_branches(self):
        prog = assemble("x: bgt r1, r2, x\nble r1, r2, x")
        bgt_i, ble_i = prog.instructions
        assert (bgt_i.opcode, bgt_i.rs1, bgt_i.rs2) == (Opcode.BLT, 2, 1)
        assert (ble_i.opcode, ble_i.rs1, ble_i.rs2) == (Opcode.BGE, 2, 1)

    def test_pseudo_label_addresses_account_for_expansion(self):
        # All pseudos expand to exactly one instruction.
        prog = assemble("li r1, 1\nmov r2, r1\nend: halt")
        assert prog.symbols["end"] == 2


class TestErrors:
    @pytest.mark.parametrize(
        "bad",
        [
            "frobnicate r1, r2, r3",
            "add r1, r2",
            "add r1, r2, r3, r4",
            "ld r1, r2",
            "addi r1, r0, 200000",
            ".bogus 3",
            "add r9, r1, r2",
        ],
    )
    def test_rejected_sources(self, bad):
        with pytest.raises(AssemblerError):
            assemble(bad)

    def test_error_carries_line_number(self):
        with pytest.raises(AssemblerError, match="line 3"):
            assemble("nop\nnop\nbad r1\n")


class TestEncodedWords:
    def test_words_match_instructions(self):
        from repro.isa.instructions import decode

        prog = assemble("add r1, r2, r3\nli r4, 9\nhalt")
        assert [decode(w) for w in prog.words] == prog.instructions


def instruction_form(op, rd, rs1, rs2, imm):
    """The text form of one instruction and the fields it sets."""
    name = op.name.lower()
    if op in (Opcode.NOP, Opcode.HALT):
        return name, Instruction(op)
    if op is Opcode.LD:
        text = f"{name} r{rd}, {imm}(r{rs1})"
        return text, Instruction(op, rd=rd, rs1=rs1, imm=imm)
    if op is Opcode.ST:
        text = f"{name} r{rs2}, {imm}(r{rs1})"
        return text, Instruction(op, rs1=rs1, rs2=rs2, imm=imm)
    if op in (Opcode.LUI, Opcode.JAL):
        return f"{name} r{rd}, {imm}", Instruction(op, rd=rd, imm=imm)
    if op in BRANCH_OPCODES:
        text = f"{name} r{rs1}, r{rs2}, {imm}"
        return text, Instruction(op, rs1=rs1, rs2=rs2, imm=imm)
    if op in IMMEDIATE_OPCODES:
        text = f"{name} r{rd}, r{rs1}, {imm}"
        return text, Instruction(op, rd=rd, rs1=rs1, imm=imm)
    text = f"{name} r{rd}, r{rs1}, r{rs2}"
    return text, Instruction(op, rd=rd, rs1=rs1, rs2=rs2)


@given(
    op=st.sampled_from(sorted(Opcode)),
    rd=st.integers(0, 7),
    rs1=st.integers(0, 7),
    rs2=st.integers(0, 7),
    imm=st.integers(IMM_MIN, IMM_MAX),
)
def test_every_instruction_form_assembles_to_its_fields(op, rd, rs1, rs2, imm):
    """Each opcode, in its operand form, with any registers and any
    immediate in range, assembles to exactly the fields it names."""
    text, expected = instruction_form(op, rd, rs1, rs2, imm)
    assert assemble(text).instructions == [expected]
