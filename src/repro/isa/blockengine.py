"""The NV16 executor: a C loop over the decoded program, with
block-compiled Python as its fallback.

:meth:`repro.isa.cpu.CPU.step` pays one Python call, one ``classify``
dict chain and one ``StepInfo`` allocation *per instruction* — the
reason real kernels (FIR, Sobel, CRC, matmul) would crawl while
abstract workloads fly through the batched exact kernel.
:class:`BlockEngine` packs a decoded program once into a table the
native ``nv16_run`` loop steps, and compiles it into basic blocks, each
both a table of specialized per-instruction closures and one generated
function for the whole block.  Both are bit-for-bit identical to a pure
``step()`` loop.

Native loop
    When :func:`repro.native.kernels` is the compiled extension,
    :meth:`BlockEngine.run` hands the segment to ``nv16_run``
    (``kernels.c``): one ``switch`` per instruction over a table of
    ``(opcode, rd, rs1, rs2, imm, cycles, seconds, joules)`` rows.  It
    reads the registers and data words in place from the CPU's Python
    lists, writes them back, appends output-port stores to
    ``memory.output`` and returns the region-counter deltas; the
    memory layout it is given is :mod:`repro.isa.memory`'s.  Float
    accounting is the scalar loop's, instruction by instruction.  It
    stops *before* what it does not model: any other MMIO access (an
    input-port load pops a queue), a data word that is not an int in
    ``0..0xFFFF``, or a cycle total past int64; the blocks then finish
    the segment.  A register outside ``0..0xFFFF``, a non-float
    accumulator or a :class:`~repro.isa.memory.MemoryMap` subclass
    leaves the whole segment to the blocks.  The loop has no Python
    twin in :mod:`repro.native.reference`: the blocks are its fallback
    and ``CPU.step`` its definition.

Compilation
    *Block discovery* finds leaders the classic way: instruction 0,
    every in-range branch/JAL target, and every instruction following
    a control transfer (branch, JAL, JALR, HALT).  Long straight-line
    spans are additionally split every :data:`MAX_BLOCK_LEN`
    instructions so a tick whose budget covers only part of a giant
    unrolled span can still fuse its prefix blocks.  Each block holds
    per-instruction ``(closure, time_s, energy_j, cycles)`` tables,
    classified through the same :func:`~repro.isa.energy.classify` /
    :class:`~repro.isa.energy.EnergyModel` lookups ``step()`` performs
    — evaluated once at compile time instead of once per executed
    instruction.

Generated code
    :func:`_source` is the one template per opcode: the instruction's
    statements on ``regs``/``memory`` with all constants folded, plus
    the next-PC expression of a control transfer.  ``r0`` reads fold
    to literal ``0`` (matching ``_read_reg``, even against adversarial
    restored states where ``regs[0]`` was forced nonzero), masked
    immediates, shift counts and ``LUI``/link constants are baked in,
    and pure ALU writes to ``r0`` compile to nothing (``LD r0, ...``
    still performs the read: MMIO pops and region counters are
    architectural side effects).  ``JALR`` reads ``rs1`` before
    writing the link register, exactly as ``_execute`` reads operands
    before dispatch.  Each instruction becomes a closure
    ``fn(regs, memory)`` returning the next PC of a control transfer
    (``None`` otherwise), and each block becomes one function
    ``fused(regs, memory, time_used, energy, cpu_energy) -> (pc,
    time_used, energy, cpu_energy)`` running the same statements in
    program order.

Block execution
    Without the extension, :meth:`BlockEngine.run` advances a CPU
    through the blocks under
    :meth:`~repro.workloads.base.FunctionalWorkload.advance`'s time
    budget.  Float accounting (``time_used += cycles * cycle_time_s``,
    ``energy += e``, ``cpu.energy_j += e``) is accumulated strictly
    per instruction in program order — never block-bulk — so every
    partial sum equals the scalar interpreter's: a block function
    follows each instruction's statements with the same three
    additions, its seconds and joules written as ``repr`` literals
    (which parse back to the same double).  Only the integer cycle and
    instruction counts are added as block totals, which is exact.  A
    block function runs only when a conservative guard proves every
    per-instruction budget/cap compare of the scalar loop would have
    passed (the guard over-approximates float accumulation error;
    blocks that straddle the budget fall back to per-instruction
    stepping, which is still exact).  Mid-block entry — a restore
    landing between leaders, a JALR into a block body, or resumption
    after a budget stop — steps the block tail per instruction and
    rejoins fused execution at the next leader.

Reference
    :class:`Interpreter` has :meth:`BlockEngine.run`'s contract and is
    the scalar loop it is held to: one ``CPU.step()`` per instruction.
    A workload picks its executor when it is built
    (``FunctionalWorkload(..., block_engine=False)`` or ``repro
    simulate --engine scalar`` selects the interpreter).  The engine
    counts native segments and fused vs. stepped block executions for
    ``--profile``.
"""

from __future__ import annotations

import math
import struct
from typing import Dict, List, Optional, Sequence, Tuple

from repro import native
from repro.isa.cpu import ExecutionError
from repro.isa.energy import EnergyModel, classify
from repro.isa.instructions import (
    BRANCH_OPCODES,
    Instruction,
    Opcode,
    to_signed,
)
from repro.isa.memory import MMIO_BASE, NVM_BASE, OUTPUT_PORT, MemoryMap

__all__ = [
    "BlockEngine",
    "Interpreter",
    "SegmentResult",
    "MAX_BLOCK_LEN",
]

#: Straight-line spans are split into blocks of at most this many
#: instructions so partial-budget ticks still fuse whole prefixes.
MAX_BLOCK_LEN = 128

#: Opcodes that end a basic block (the next instruction is a leader).
_CONTROL_OPCODES = frozenset(BRANCH_OPCODES) | {
    Opcode.JAL,
    Opcode.JALR,
    Opcode.HALT,
}

#: Accumulated-float-error over-approximation per summed term; used by
#: the fused-block budget guard (several times 2**-52, covering both
#: the compile-time block-sum rounding and the runtime accumulation).
_GUARD_EPS = 1.0e-15

#: One row of the C loop's table: opcode, rd, rs1, rs2, imm, cycles,
#: seconds, joules (``Op`` in ``kernels.c``).
_ROW = struct.Struct("=4i2q2d")

#: The memory layout the C loop is given with every segment.
_LAYOUT = (NVM_BASE, MMIO_BASE, OUTPUT_PORT)

#: How ``nv16_run`` stopped (its enum in ``kernels.c``).
_CAPPED, _FAULT, _YIELDED = 1, 2, 3


class SegmentResult:
    """Outcome of one executor segment (:meth:`BlockEngine.run` or
    :meth:`Interpreter.run`).

    Attributes:
        executed: instructions retired by the segment.
        energy_j: the caller's energy accumulator after the segment
            (same left-to-right adds the scalar loop performs).
        time_used_s: the caller's time accumulator after the segment.
        capped: the segment retired one instruction past the caller's
            cap (the cap trips *after* the offending instruction
            executes).
        fault: the :class:`~repro.isa.cpu.ExecutionError` a
            ``CPU.step()`` raises at this point, or ``None``.  The CPU
            counters already include every instruction retired before
            the fault, exactly as chained ``step()`` calls leave them.
    """

    __slots__ = ("executed", "energy_j", "time_used_s", "capped", "fault")

    def __init__(
        self,
        executed: int,
        energy_j: float,
        time_used_s: float,
        capped: bool = False,
        fault: Optional[ExecutionError] = None,
    ) -> None:
        self.executed = executed
        self.energy_j = energy_j
        self.time_used_s = time_used_s
        self.capped = capped
        self.fault = fault


class Interpreter:
    """The NV16 reference executor: one ``CPU.step()`` per instruction.

    :meth:`run` is the scalar loop :meth:`BlockEngine.run` is held to,
    with the same arguments and result, so a workload drives either one
    through the same loop.
    """

    def run(
        self,
        cpu,
        budget_s: float,
        time_used_s: float,
        energy_j: float,
        cap_remaining: int,
    ) -> SegmentResult:
        """Step until the budget, a HALT, the cap, or a fault.

        Each instruction has architecturally executed once ``step()``
        returns (behavioral steps are atomic), so it is charged even
        when it overshoots the budget.
        """
        cycle_time_s = cpu.energy_model.cycle_time_s
        time_used = time_used_s
        energy = energy_j
        executed = 0
        while time_used < budget_s:
            try:
                info = cpu.step()
            except ExecutionError as fault:
                return SegmentResult(executed, energy, time_used, fault=fault)
            time_used += info.cycles * cycle_time_s
            energy += info.energy_j
            executed += 1
            if executed > cap_remaining:
                return SegmentResult(executed, energy, time_used, capped=True)
            if cpu.state.halted:
                break
        return SegmentResult(executed, energy, time_used)


class _Block:
    """One compiled basic block.

    ``ops`` holds one ``(fn, time_s, energy_j, cycles)`` per
    instruction, dense from ``start``; ``fn(regs, memory)`` returns the
    next PC when the instruction is the control transfer ending the
    block and ``None`` otherwise.  ``fused`` runs the whole block (see
    :func:`_fused_fn`); ``cycles`` is its exact integer cycle total and
    ``halts`` marks a block ending in HALT.
    """

    __slots__ = (
        "start",
        "limit",
        "ops",
        "fused",
        "halts",
        "cycles",
        "n_instructions",
        "body_time_s",
        "guard_factor",
    )

    def __init__(
        self, start: int, limit: int, ops, fused, halts: bool
    ) -> None:
        self.start = start
        self.limit = limit
        self.ops = ops
        self.fused = fused
        self.halts = halts
        self.n_instructions = len(ops)
        # Upper bound for the fused-budget guard: the largest partial
        # sum the scalar loop compares against the budget is the one
        # *before* the final instruction, but bounding the full-block
        # sum is simpler and only costs boundary ticks a per-op pass.
        total = 0.0
        cycles = 0
        for _fn, t, _e, c in ops:
            total += t
            cycles += c
        self.body_time_s = total
        self.cycles = cycles
        self.guard_factor = 1.0 + _GUARD_EPS * (self.n_instructions + 4)


def _reg_expr(index: int) -> str:
    """Source for a register read (``_read_reg`` semantics)."""
    return "0" if index == 0 else f"regs[{index}]"


def _compile_fn(lines: List[str], args: str):
    """Exec ``def fn(<args>):`` over ``lines`` and return the function.

    ``inf``/``nan`` are bound so the ``repr`` of every float is a valid
    expression.
    """
    source = f"def fn({args}):\n" + "".join(f"    {line}\n" for line in lines)
    namespace: Dict[str, object] = {
        "ts": to_signed, "inf": math.inf, "nan": math.nan,
    }
    exec(compile(source, "<blockengine>", "exec"), namespace)
    return namespace["fn"]


def _nop_fn(regs, memory) -> None:
    return None


#: Value-expression templates for the ALU opcodes: ``{a}``/``{b}`` are
#: register reads, ``{imm}`` the signed immediate, ``{uimm}`` its
#: 16-bit mask, ``{sh}`` a shift count and ``{lui}`` the ``LUI``
#: constant.  Every write goes through ``& 0xFFFF`` (``_write_reg``),
#: and signed views go through the same masked ``to_signed`` helper the
#: interpreter uses — so even non-canonical restored register values
#: (> 16 bits) produce identical results.
_ALU = {
    Opcode.ADD: "({a} + {b})",
    Opcode.SUB: "({a} - {b})",
    Opcode.AND: "({a} & {b})",
    Opcode.OR: "({a} | {b})",
    Opcode.XOR: "({a} ^ {b})",
    Opcode.SHL: "({a} << ({b} % 16))",
    Opcode.SHR: "({a} >> ({b} % 16))",
    Opcode.SAR: "(ts({a}) >> ({b} % 16))",
    Opcode.MUL: "({a} * {b})",
    Opcode.MULH: "(({a} * {b}) >> 16)",
    Opcode.DIVU: "(0xFFFF if {b} == 0 else {a} // {b})",
    Opcode.REMU: "({a} if {b} == 0 else {a} % {b})",
    Opcode.SLT: "(1 if ts({a}) < ts({b}) else 0)",
    Opcode.SLTU: "(1 if {a} < {b} else 0)",
    Opcode.ADDI: "({a} + {imm})",
    Opcode.ANDI: "({a} & {uimm})",
    Opcode.ORI: "({a} | {uimm})",
    Opcode.XORI: "({a} ^ {uimm})",
    Opcode.SHLI: "({a} << {sh})",
    Opcode.SHRI: "({a} >> {sh})",
    Opcode.SARI: "(ts({a}) >> {sh})",
    Opcode.SLTI: "(1 if ts({a}) < {imm} else 0)",
    Opcode.SLTIU: "(1 if {a} < {uimm} else 0)",
    Opcode.LUI: "{lui}",
}

_BRANCH_COND = {
    Opcode.BEQ: "{a} == {b}",
    Opcode.BNE: "{a} != {b}",
    Opcode.BLT: "ts({a}) < ts({b})",
    Opcode.BGE: "ts({a}) >= ts({b})",
    Opcode.BLTU: "{a} < {b}",
    Opcode.BGEU: "{a} >= {b}",
}


def _source(pc: int, instr: Instruction) -> Tuple[List[str], Optional[str]]:
    """Source for one instruction at ``pc``.

    Returns its statements on ``regs``/``memory`` and, for a control
    transfer, the expression of the next PC (``None`` otherwise).
    """
    op = instr.opcode
    rd = instr.rd
    a = _reg_expr(instr.rs1)
    b = _reg_expr(instr.rs2)
    imm = instr.imm
    fallthrough = pc + 1
    if op in _ALU:
        if rd == 0:
            # DIVU/REMU by zero is architecturally defined (no trap),
            # so a discarded ALU result has no observable effect.
            return [], None
        value = _ALU[op].format(
            a=a, b=b, imm=imm, uimm=imm & 0xFFFF, sh=imm % 16,
            lui=(imm & 0xFF) << 8,
        )
        return [f"regs[{rd}] = {value} & 0xFFFF"], None
    if op is Opcode.LD:
        read = f"memory.read(({a} + {imm}) & 0xFFFF)"
        # The read still happens for rd == 0: region counters and the
        # MMIO input-port pop are architectural side effects.
        return [f"regs[{rd}] = {read} & 0xFFFF" if rd else read], None
    if op is Opcode.ST:
        return [f"memory.write(({a} + {imm}) & 0xFFFF, {b})"], None
    if op is Opcode.NOP:
        return [], None
    if op in BRANCH_OPCODES:
        cond = _BRANCH_COND[op].format(a=a, b=b)
        return [], f"{imm & 0xFFFF} if {cond} else {fallthrough}"
    if op is Opcode.JAL:
        link = [f"regs[{rd}] = {fallthrough & 0xFFFF}"] if rd else []
        return link, str(imm & 0xFFFF)
    if op is Opcode.JALR:
        if rd == 0:
            return [], f"({a} + {imm}) & 0xFFFF"
        # rs1 is read before the link write, matching ``_execute``'s
        # operand-fetch-then-dispatch order when rd == rs1.
        return [
            f"target = ({a} + {imm}) & 0xFFFF",
            f"regs[{rd}] = {fallthrough & 0xFFFF}",
        ], "target"
    if op is Opcode.HALT:
        # The run loops set ``halted``; the PC falls through to pc + 1,
        # exactly as ``_execute`` does.
        return [], str(fallthrough)
    raise ExecutionError(f"unimplemented opcode {op!r}")  # pragma: no cover


def _pack(program: Sequence[Instruction], costs) -> Optional[bytes]:
    """The decoded program as the C loop's table, one :data:`_ROW` per
    instruction and its ``(seconds, joules, cycles)``.

    ``None`` when a cost is not an int64 cycle count and float seconds
    and joules: the C loop holds only those exactly.
    """
    rows = []
    for instr, (seconds, joules, cycles) in zip(program, costs):
        if not (
            type(cycles) is int
            and type(seconds) is float
            and type(joules) is float
        ):
            return None
        try:
            rows.append(_ROW.pack(
                instr.opcode, instr.rd, instr.rs1, instr.rs2, instr.imm,
                cycles, seconds, joules,
            ))
        except struct.error:
            return None
    return b"".join(rows)


def _op_fn(statements: List[str], next_pc: Optional[str]):
    """One instruction as ``fn(regs, memory) -> next_pc or None``."""
    if next_pc is not None:
        return _compile_fn(statements + [f"return {next_pc}"], "regs, memory")
    if not statements:
        return _nop_fn
    return _compile_fn(statements, "regs, memory")


def _fused_fn(sources, ops, limit: int):
    """A whole block as one function ``fused(regs, memory, time_used,
    energy, cpu_energy) -> (pc, time_used, energy, cpu_energy)``.

    Each instruction's statements are followed by the float additions
    the scalar loop performs for it, in the same order and with the same
    operands: ``repr`` of a float parses back to the same double.
    """
    lines: List[str] = []
    for (statements, _next_pc), (_fn, t, e, _c) in zip(sources, ops):
        lines += statements
        lines += [
            f"time_used += {t!r}", f"energy += {e!r}", f"cpu_energy += {e!r}",
        ]
    next_pc = sources[-1][1]
    lines.append(
        f"return ({limit if next_pc is None else next_pc}), "
        "time_used, energy, cpu_energy"
    )
    return _compile_fn(lines, "regs, memory, time_used, energy, cpu_energy")


class BlockEngine:
    """A program packed for the C loop and compiled to basic blocks of
    generated functions.

    One engine serves every CPU instance a
    :class:`~repro.workloads.base.FunctionalWorkload` creates (the
    per-unit fresh CPUs share the same program and energy model); the
    table and the generated functions hold only compile-time constants
    and act on the state passed per call.

    Attributes:
        native_runs: segments the C loop ran.
        fused_blocks: blocks executed wholesale by their block function
            (the profile "hit" count).
        stepped_blocks: block executions that fell back to
            per-instruction stepping — mid-block entries and
            budget/cap boundary straddles (the profile "miss" count).
    """

    def __init__(
        self,
        program: Sequence[Instruction],
        energy_model: EnergyModel,
    ) -> None:
        self.n_instructions = len(program)
        self.native_runs = 0
        self.fused_blocks = 0
        self.stepped_blocks = 0
        self._blocks: List[_Block] = []
        #: pc -> owning block, dense over the program.
        self._block_at: List[_Block] = []
        # (seconds, joules, cycles) of each instruction, classified
        # through the same lookups ``step()`` performs.
        cycle_time = energy_model.cycle_time_s
        costs = []
        for instr in program:
            cls = classify(instr)
            cycles = energy_model.instruction_cycles(cls)
            costs.append((
                cycles * cycle_time,
                energy_model.instruction_energy(cls),
                cycles,
            ))
        self._table = _pack(program, costs)
        self._compile(program, costs)

    # -- compilation -------------------------------------------------------

    def _compile(self, program: Sequence[Instruction], costs) -> None:
        n = len(program)
        if n == 0:
            return
        leaders = {0}
        for pc, instr in enumerate(program):
            op = instr.opcode
            if op in _CONTROL_OPCODES:
                if pc + 1 < n:
                    leaders.add(pc + 1)
                if op is not Opcode.JALR and op is not Opcode.HALT:
                    target = instr.imm & 0xFFFF
                    if target < n:
                        leaders.add(target)
        starts = sorted(leaders)
        bounds = []
        for i, start in enumerate(starts):
            limit = starts[i + 1] if i + 1 < len(starts) else n
            # Split giant straight-line spans so partial budgets fuse.
            while limit - start > MAX_BLOCK_LEN:
                bounds.append((start, start + MAX_BLOCK_LEN))
                start += MAX_BLOCK_LEN
            bounds.append((start, limit))
        for start, limit in bounds:
            sources = [_source(pc, program[pc]) for pc in range(start, limit)]
            ops = [
                (_op_fn(statements, next_pc), *costs[pc])
                for pc, (statements, next_pc) in enumerate(sources, start)
            ]
            block = _Block(
                start, limit, ops, _fused_fn(sources, ops, limit),
                program[limit - 1].opcode is Opcode.HALT,
            )
            self._blocks.append(block)
            self._block_at.extend([block] * (limit - start))

    # -- introspection -----------------------------------------------------

    @property
    def n_blocks(self) -> int:
        """Number of compiled basic blocks."""
        return len(self._blocks)

    def profile_counts(self) -> Dict[str, int]:
        """Native-segment and fused/stepped block counters (the
        ``--profile`` report)."""
        return {
            "blocks": self.n_blocks,
            "native": self.native_runs,
            "fused": self.fused_blocks,
            "stepped": self.stepped_blocks,
        }

    # -- execution ---------------------------------------------------------

    def run(
        self,
        cpu,
        budget_s: float,
        time_used_s: float,
        energy_j: float,
        cap_remaining: int,
    ) -> SegmentResult:
        """Execute until the budget, a HALT, the cap, or a fault.

        Bit for bit what :meth:`Interpreter.run` does from the same
        state: the same CPU state, counters, accumulators and result.

        Args:
            cpu: the :class:`~repro.isa.cpu.CPU` to advance (its
                program must be the one this engine compiled).
            budget_s: the advance loop's total budget.
            time_used_s: the advance loop's time accumulator on entry.
            energy_j: the advance loop's energy accumulator on entry.
            cap_remaining: instructions the current unit may still
                retire before ``max_instructions_per_unit`` trips.

        Returns:
            A :class:`SegmentResult`; CPU state and counters are
            written back on every exit path.
        """
        state = cpu.state
        if state.halted:
            # As for any fault, only while budget remains.
            fault = None
            if time_used_s < budget_s:
                fault = ExecutionError("cannot step a halted core")
            return SegmentResult(0, energy_j, time_used_s, fault=fault)
        nv16_run = getattr(native.kernels(), "nv16_run", None)
        memory = cpu.memory
        out = None
        if (
            nv16_run is not None
            and self._table is not None
            and type(memory) is MemoryMap
        ):
            out = nv16_run(
                self._table, _LAYOUT, state.regs, memory._words,
                memory.output, state.pc, budget_s, time_used_s, energy_j,
                cpu.energy_j, cap_remaining,
            )
        if out is None:
            # No extension, or a value the C loop would not hold exactly
            # (a register outside 0..0xFFFF, an int budget): the whole
            # segment is the blocks'.
            return self._run_blocks(
                cpu, budget_s, time_used_s, energy_j, cap_remaining
            )
        (stop, halted, state.pc, time_used, energy, cpu.energy_j, cycles,
         executed, ram_reads, ram_writes, nvm_reads, nvm_writes) = out
        self.native_runs += 1
        if halted:
            state.halted = True
        cpu.cycles += cycles
        cpu.instructions_retired += executed
        memory.ram_reads += ram_reads
        memory.ram_writes += ram_writes
        memory.nvm_reads += nvm_reads
        memory.nvm_writes += nvm_writes
        if stop == _YIELDED:
            # The next instruction is one the loop does not model (an
            # MMIO access other than an output-port store): the blocks
            # finish the segment from it.
            segment = self._run_blocks(
                cpu, budget_s, time_used, energy, cap_remaining - executed
            )
            segment.executed += executed
            return segment
        fault = None
        if stop == _FAULT:
            fault = ExecutionError(
                f"PC {state.pc:#06x} outside program of "
                f"{self.n_instructions} words"
            )
        return SegmentResult(
            executed, energy, time_used, stop == _CAPPED, fault
        )

    def _run_blocks(
        self,
        cpu,
        budget_s: float,
        time_used_s: float,
        energy_j: float,
        cap_remaining: int,
    ) -> SegmentResult:
        """:meth:`run` on the generated blocks, from a core that is not
        halted."""
        state = cpu.state
        regs = state.regs
        memory = cpu.memory
        pc = state.pc
        n = self.n_instructions
        block_at = self._block_at
        time_used = time_used_s
        energy = energy_j
        cpu_energy = cpu.energy_j
        cycles = 0
        executed = 0
        budget = budget_s
        halted = False
        capped = False
        fault: Optional[ExecutionError] = None
        fused = 0
        stepped = 0

        while time_used < budget:
            if not 0 <= pc < n:
                fault = ExecutionError(
                    f"PC {pc:#06x} outside program of {n} words"
                )
                break
            blk = block_at[pc]
            if (
                pc == blk.start
                and executed + blk.n_instructions <= cap_remaining
                and (time_used + blk.body_time_s) * blk.guard_factor
                < budget
            ):
                # Fused: the guard proves every per-instruction budget
                # compare would pass and the cap cannot trip, so only
                # the architectural work and the (order-preserving)
                # per-instruction accounting remain.
                fused += 1
                pc, time_used, energy, cpu_energy = blk.fused(
                    regs, memory, time_used, energy, cpu_energy
                )
                cycles += blk.cycles
                executed += blk.n_instructions
                if blk.halts:
                    halted = True
                    break
                continue
            # Per-instruction tail: mid-block entry or a block that
            # straddles the budget/cap boundary.
            stepped += 1
            ops = blk.ops
            n_ops = len(ops)
            i = pc - blk.start
            next_pc = None
            while i < n_ops and time_used < budget:
                fn, t, e, c = ops[i]
                next_pc = fn(regs, memory)
                time_used += t
                energy += e
                cpu_energy += e
                cycles += c
                executed += 1
                i += 1
                if executed > cap_remaining:
                    capped = True
                    break
            # Only the block's last instruction returns a next PC.
            pc = blk.start + i if next_pc is None else next_pc
            halted = i == n_ops and blk.halts
            if capped or halted or i < n_ops:
                break

        state.pc = pc
        if halted:
            state.halted = True
        cpu.energy_j = cpu_energy
        cpu.cycles += cycles
        cpu.instructions_retired += executed
        self.fused_blocks += fused
        self.stepped_blocks += stepped
        return SegmentResult(executed, energy, time_used, capped, fault)
