"""Behavioral NV16 CPU core with cycle and energy accounting.

The core executes one instruction per :meth:`CPU.step` call against a
:class:`~repro.isa.memory.MemoryMap`, charging cycles and joules from
an :class:`~repro.isa.energy.EnergyModel`.  Architectural state is
deliberately tiny (eight registers + PC), matching the MCU-class cores
used in NVP prototypes, and can be snapshotted/restored in O(1) — the
primitive the nonvolatile backup controller in :mod:`repro.core` builds
on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.isa.energy import EnergyModel, InstrClass, classify
from repro.isa.instructions import (
    BRANCH_OPCODES,
    Instruction,
    NUM_REGISTERS,
    Opcode,
    to_signed,
    to_unsigned,
)
from repro.isa.memory import MemoryMap


class ExecutionError(Exception):
    """Raised when the core reaches an invalid architectural situation."""


@dataclass
class CPUState:
    """Snapshot-able architectural state of the NV16 core."""

    regs: List[int] = field(default_factory=lambda: [0] * NUM_REGISTERS)
    pc: int = 0
    halted: bool = False

    def copy(self) -> "CPUState":
        """Deep copy (registers are ints, so a list copy suffices)."""
        return CPUState(regs=list(self.regs), pc=self.pc, halted=self.halted)

    def state_bits(self) -> int:
        """Number of architectural state bits a backup must preserve."""
        return NUM_REGISTERS * 16 + 16 + 1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CPUState):
            return NotImplemented
        return (
            self.regs == other.regs
            and self.pc == other.pc
            and self.halted == other.halted
        )


@dataclass(frozen=True)
class StepInfo:
    """Result of executing a single instruction."""

    instruction: Instruction
    instr_class: InstrClass
    cycles: int
    energy_j: float
    pc_before: int
    pc_after: int


class CPU:
    """NV16 behavioral core.

    Args:
        program: decoded instruction sequence (instruction memory).
        memory: data memory; a fresh :class:`MemoryMap` by default.
        energy_model: cycle/energy charging model.
    """

    def __init__(
        self,
        program: Sequence[Instruction],
        memory: Optional[MemoryMap] = None,
        energy_model: Optional[EnergyModel] = None,
    ) -> None:
        self.program = list(program)
        self.memory = memory if memory is not None else MemoryMap()
        self.energy_model = energy_model if energy_model is not None else EnergyModel()
        self.state = CPUState()
        self.instructions_retired = 0
        self.cycles = 0
        self.energy_j = 0.0

    # -- state management -------------------------------------------------

    def snapshot(self) -> CPUState:
        """Capture architectural state (what a hardware backup saves)."""
        return self.state.copy()

    def restore(self, snapshot: CPUState) -> None:
        """Restore architectural state from a snapshot."""
        self.state = snapshot.copy()

    # -- execution ---------------------------------------------------------

    def step(self) -> StepInfo:
        """Execute one instruction and charge its cycles/energy.

        Returns:
            A :class:`StepInfo` describing the retired instruction.

        Raises:
            ExecutionError: if the core is halted or the PC leaves the
                program.
        """
        state = self.state
        if state.halted:
            raise ExecutionError("cannot step a halted core")
        if not 0 <= state.pc < len(self.program):
            raise ExecutionError(
                f"PC {state.pc:#06x} outside program of {len(self.program)} words"
            )
        instr = self.program[state.pc]
        pc_before = state.pc
        self._execute(instr)
        cls = classify(instr)
        cycles = self.energy_model.instruction_cycles(cls)
        energy = self.energy_model.instruction_energy(cls)
        self.instructions_retired += 1
        self.cycles += cycles
        self.energy_j += energy
        return StepInfo(
            instruction=instr,
            instr_class=cls,
            cycles=cycles,
            energy_j=energy,
            pc_before=pc_before,
            pc_after=state.pc,
        )

    def run(self, max_instructions: int = 1_000_000) -> int:
        """Run until HALT or the instruction budget is exhausted.

        Returns:
            The number of instructions executed by this call.
        """
        executed = 0
        while not self.state.halted and executed < max_instructions:
            self.step()
            executed += 1
        return executed

    # -- private helpers ----------------------------------------------------

    def _read_reg(self, index: int) -> int:
        return 0 if index == 0 else self.state.regs[index]

    def _write_reg(self, index: int, value: int) -> None:
        if index != 0:
            self.state.regs[index] = to_unsigned(value)

    def _execute(self, instr: Instruction) -> None:
        op = instr.opcode
        state = self.state
        next_pc = state.pc + 1
        a = self._read_reg(instr.rs1)
        b = self._read_reg(instr.rs2)
        imm = instr.imm

        if op is Opcode.ADD:
            self._write_reg(instr.rd, a + b)
        elif op is Opcode.SUB:
            self._write_reg(instr.rd, a - b)
        elif op is Opcode.AND:
            self._write_reg(instr.rd, a & b)
        elif op is Opcode.OR:
            self._write_reg(instr.rd, a | b)
        elif op is Opcode.XOR:
            self._write_reg(instr.rd, a ^ b)
        elif op is Opcode.SHL:
            self._write_reg(instr.rd, a << (b % 16))
        elif op is Opcode.SHR:
            self._write_reg(instr.rd, a >> (b % 16))
        elif op is Opcode.SAR:
            self._write_reg(instr.rd, to_signed(a) >> (b % 16))
        elif op is Opcode.MUL:
            self._write_reg(instr.rd, a * b)
        elif op is Opcode.MULH:
            self._write_reg(instr.rd, (a * b) >> 16)
        elif op is Opcode.DIVU:
            self._write_reg(instr.rd, 0xFFFF if b == 0 else a // b)
        elif op is Opcode.REMU:
            self._write_reg(instr.rd, a if b == 0 else a % b)
        elif op is Opcode.SLT:
            self._write_reg(instr.rd, 1 if to_signed(a) < to_signed(b) else 0)
        elif op is Opcode.SLTU:
            self._write_reg(instr.rd, 1 if a < b else 0)
        elif op is Opcode.ADDI:
            self._write_reg(instr.rd, a + imm)
        elif op is Opcode.ANDI:
            self._write_reg(instr.rd, a & to_unsigned(imm))
        elif op is Opcode.ORI:
            self._write_reg(instr.rd, a | to_unsigned(imm))
        elif op is Opcode.XORI:
            self._write_reg(instr.rd, a ^ to_unsigned(imm))
        elif op is Opcode.SHLI:
            self._write_reg(instr.rd, a << (imm % 16))
        elif op is Opcode.SHRI:
            self._write_reg(instr.rd, a >> (imm % 16))
        elif op is Opcode.SARI:
            self._write_reg(instr.rd, to_signed(a) >> (imm % 16))
        elif op is Opcode.SLTI:
            self._write_reg(instr.rd, 1 if to_signed(a) < imm else 0)
        elif op is Opcode.SLTIU:
            self._write_reg(instr.rd, 1 if a < to_unsigned(imm) else 0)
        elif op is Opcode.LUI:
            self._write_reg(instr.rd, (imm & 0xFF) << 8)
        elif op is Opcode.LD:
            self._write_reg(instr.rd, self.memory.read(to_unsigned(a + imm)))
        elif op is Opcode.ST:
            self.memory.write(to_unsigned(a + imm), b)
        elif op in BRANCH_OPCODES:
            if self._branch_taken(op, a, b):
                next_pc = to_unsigned(imm)
        elif op is Opcode.JAL:
            self._write_reg(instr.rd, next_pc)
            next_pc = to_unsigned(imm)
        elif op is Opcode.JALR:
            self._write_reg(instr.rd, next_pc)
            next_pc = to_unsigned(a + imm)
        elif op is Opcode.NOP:
            pass
        elif op is Opcode.HALT:
            state.halted = True
        else:  # pragma: no cover - exhaustive over Opcode
            raise ExecutionError(f"unimplemented opcode {op!r}")

        state.pc = next_pc

    @staticmethod
    def _branch_taken(op: Opcode, a: int, b: int) -> bool:
        if op is Opcode.BEQ:
            return a == b
        if op is Opcode.BNE:
            return a != b
        if op is Opcode.BLT:
            return to_signed(a) < to_signed(b)
        if op is Opcode.BGE:
            return to_signed(a) >= to_signed(b)
        if op is Opcode.BLTU:
            return a < b
        return a >= b  # BGEU
