"""The native kernels: diffed bit for bit against their Python twin.

``repro.native.kernels()`` runs the sequential loops and the fleet's
row tick in C when the extension builds, else in
``repro.native.reference``.  Every value the C functions return,
including the state they hand back or update in place, must equal the
reference's bit for bit; the simulator's results must not
depend on the backend; and the first-use build must be safe when
processes race, and tried once when it fails.  The NV16 loop has no
Python twin: ``BlockEngine.run`` on it is diffed against
``Interpreter.run``, one ``CPU.step()`` per instruction.

Tests that need the compiled module skip when no compiler works in
this environment (the session's ``kernels()`` fell back).
"""

import importlib.machinery
import json
import math
import os
import struct
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import native
from repro.harvest.sources import square_trace, wristwatch_trace
from repro.isa.blockengine import BlockEngine, Interpreter
from repro.isa.cpu import CPU
from repro.isa.energy import EnergyModel
from repro.isa.instructions import (
    BRANCH_OPCODES,
    IMM_MAX,
    IMM_MIN,
    Instruction,
    Opcode,
)
from repro.isa.memory import (
    INPUT_PORT,
    MMIO_BASE,
    NVM_BASE,
    OUTPUT_PORT,
    MemoryMap,
)
from repro.native import reference
from repro.storage.capacitor import FLAT_EFFICIENCY, Capacitor, ChargeEfficiency
from repro.storage.ideal import IdealStorage
from repro.system.presets import (
    build_checkpoint,
    build_nvp,
    build_wait_compute,
    standard_rectifier,
)
from repro.system.simulator import SystemSimulator
from repro.workloads.asmkit import assemble_kernel
from repro.workloads.base import AbstractWorkload

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")

needs_compiler = pytest.mark.skipif(
    native.kernels().BACKEND != "native",
    reason=f"no working C compiler: {native.reason()}",
)


def bits(value):
    """A returned value as comparable bits: floats by bit pattern (so
    ``-0.0 != 0.0`` and NaNs compare), tuples element by element."""
    if isinstance(value, tuple):
        return tuple(bits(item) for item in value)
    if isinstance(value, float):
        return struct.pack("<d", value)
    return value


def both(name, *args):
    """Call the C function and its reference twin on the same inputs."""
    return (
        bits(getattr(native.kernels(), name)(*args)),
        bits(getattr(reference, name)(*args)),
    )


# -- strategies -------------------------------------------------------------

#: Input powers: zeros, denormals, the usual range and spikes.
powers = st.one_of(
    st.just(0.0),
    st.floats(min_value=5e-324, max_value=2.2e-308),
    st.floats(min_value=0.0, max_value=1e-3),
    st.floats(min_value=1e-2, max_value=10.0),
)


@st.composite
def stores(draw):
    """``(chain, energy)`` of a flat, curved or ideal store."""
    kind = draw(st.sampled_from(["flat", "curved", "ideal"]))
    if kind == "ideal":
        store = IdealStorage(capacity_j=draw(st.floats(1e-9, 10.0)))
    else:
        if kind == "flat":
            efficiency = FLAT_EFFICIENCY
        else:
            peak = draw(st.floats(0.3, 1.0))
            efficiency = ChargeEfficiency(
                eta_peak=peak,
                eta_floor=draw(st.floats(0.0, peak)),
                v_opt_v=draw(st.floats(0.0, 4.0)),
                v_span_v=draw(st.floats(0.1, 4.0)),
            )
        store = Capacitor(
            capacitance_f=draw(st.floats(1e-8, 1.0)),
            v_max_v=draw(st.floats(0.5, 5.0)),
            # inf: no leak; 1e-3: a leak that drains the store.
            leak_resistance_ohm=draw(
                st.sampled_from([math.inf, 1e-3]) | st.floats(1e2, 1e9)
            ),
            efficiency=efficiency,
            min_charge_current_a=draw(
                st.just(0.0) | st.floats(1e-7, 1e-2)
            ),
        )
    energy = draw(
        st.sampled_from([0.0, store.capacity_j])
        | st.floats(0.0, store.capacity_j)
    )
    return store.chain(), energy


def trace_arg(draw, samples):
    """The trace as the simulator passes it (a list) or as a numpy array."""
    return np.array(samples) if draw(st.booleans()) else list(samples)


@st.composite
def charge_cases(draw):
    samples = draw(st.lists(powers, min_size=1, max_size=40))
    chain, energy = draw(stores())
    start = draw(st.integers(0, len(samples)))
    stop = draw(st.integers(start, len(samples)))
    # None (inf), reached on the first tick (0.0), or anywhere.
    target = draw(
        st.sampled_from([math.inf, 0.0]) | st.floats(0.0, chain[1])
    )
    ledgers = draw(st.tuples(*[st.floats(0.0, 1.0)] * 3))
    return (trace_arg(draw, samples), start, stop,
            draw(st.sampled_from([1e-4, 1e-3, 1e-6])), chain, target,
            (energy, *ledgers))


@st.composite
def storage_cases(draw):
    samples = draw(st.lists(powers, min_size=1, max_size=40))
    chain, energy = draw(stores())
    dt = draw(st.sampled_from([1e-4, 1e-3]))
    tpi = draw(st.floats(1e-9, 1e-5))
    epi = draw(st.floats(1e-13, 1e-3))
    retired = draw(st.integers(0, 10**6))
    ipu = draw(st.integers(1, 10**5))
    limit = draw(st.none() | st.integers(retired, retired + 10**6))
    threshold = draw(st.just(-math.inf) | st.floats(0.0, chain[1]))
    state = (
        energy,
        *draw(st.tuples(*[st.floats(0.0, 1.0)] * 4)),
        draw(st.floats(0.0, 1.0)),             # consumed
        draw(st.floats(0.0, 3 * dt)),          # stall
        draw(st.floats(0.0, tpi)),             # credit
        retired,
        draw(st.integers(0, 10**6)),           # volatile
    )
    return (trace_arg(draw, samples), 0, len(samples), dt, chain,
            (tpi, epi, limit, ipu),
            (threshold, draw(st.booleans())),
            state)


# -- the differential tests ---------------------------------------------------


#: The one-ulp capacity-clip overshoot: a 470 nF, 3.3 V store holding
#: this energy clips a spike to ``E + (cap - E)``, which rounds half to
#: even one ulp above capacity; every engine keeps that ulp.
OVERSHOOT_STORE = Capacitor(
    470e-9, v_max_v=3.3, leak_resistance_ohm=math.inf
)
OVERSHOOT_ENERGY = 6.471373815053169e-07


@needs_compiler
class TestDifferential:
    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(case=charge_cases())
    @example(case=([1.0], 0, 1, 1e-4, OVERSHOOT_STORE.chain(), math.inf,
                   (OVERSHOOT_ENERGY, 0.0, 0.0, 0.0)))
    def test_charge_many(self, case):
        native_out, reference_out = both("charge_many", *case)
        assert native_out == reference_out

    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(case=storage_cases())
    def test_storage_run(self, case):
        native_out, reference_out = both("storage_run", *case)
        assert native_out == reference_out

    @settings(max_examples=200, deadline=None)
    @given(
        steps=st.lists(
            st.floats(-10.0, 10.0) | st.just(0.0) | st.just(-0.0),
            min_size=0, max_size=300,
        ),
        alpha=st.floats(0.0, 1.0),
        x0=st.floats(-10.0, 10.0),
    )
    def test_ou_walk(self, steps, alpha, x0):
        walked = np.array(steps, dtype=np.float64)
        twin = walked.copy()
        native.kernels().ou_walk(walked, alpha, x0)
        reference.ou_walk(twin, alpha, x0)
        assert walked.tobytes() == twin.tobytes()

    def test_capacity_clip_overshoot_is_reached(self):
        ticks, crossed, state = native.kernels().charge_many(
            [1.0], 0, 1, 1e-4, OVERSHOOT_STORE.chain(), math.inf,
            (OVERSHOOT_ENERGY, 0.0, 0.0, 0.0),
        )
        assert (ticks, crossed) == (1, False)
        assert state[0] == math.nextafter(OVERSHOOT_STORE.capacity_j, 1.0)


def storage_case(**changes):
    """A storage_run case on a 1 µF store; ``changes`` override parts."""
    store = Capacitor(1e-6, v_max_v=3.3)
    case = dict(
        p_in_w=[50e-6] * 200, start=0, stop=200, dt_s=1e-4,
        chain=store.chain(),
        workload=(1e-7, 1e-11, None, 10_000),
        stops=(-math.inf, False),
        state=(0.9 * store.capacity_j, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
               0, 0),
    )
    case.update(changes)
    return tuple(case.values())


#: One case per stop rule, each stopping the batch part way.
STOP_RULES = {
    "threshold": storage_case(stops=(4.5e-6, False)),
    "unit_boundary": storage_case(stops=(-math.inf, True),
                                  workload=(1e-7, 1e-11, None, 5_000)),
    "finishing_tick": storage_case(workload=(1e-7, 1e-11, 42_000, 10_000)),
    "deficit": storage_case(workload=(1e-7, 2e-9, None, 10_000)),
}


@needs_compiler
class TestStopRules:
    @pytest.mark.parametrize("rule", sorted(STOP_RULES))
    def test_each_rule_stops_both_at_the_same_tick(self, rule):
        case = STOP_RULES[rule]
        native_out, reference_out = both("storage_run", *case)
        assert native_out == reference_out
        ticks = reference.storage_run(*case)[0]
        assert 0 < ticks < 200, rule

    def test_unrepresentable_instruction_count_stops_both(self):
        # budget / tpi past int64 (and NaN) end the batch before the
        # tick; the scalar path then runs it.
        for tpi in (1e-30, math.nan):
            case = storage_case(workload=(tpi, 1e-11, None, 10_000))
            native_out, reference_out = both("storage_run", *case)
            assert native_out == reference_out
            assert native_out[0] == 0

    def test_counters_outside_int64_keep_every_tick_scalar(self):
        state = list(storage_case()[-1])
        state[-2] = 2**63
        case = storage_case(state=tuple(state))
        ticks, returned = native.kernels().storage_run(*case)
        assert ticks == 0 and returned == tuple(state)

    def test_index_error_where_python_raises(self):
        for name, case in (
            ("storage_run", storage_case(stop=201)),
            ("charge_many",
             ([1e-6] * 3, 0, 4, 1e-4, Capacitor(1e-6).chain(), math.inf,
              (0.0, 0.0, 0.0, 0.0))),
        ):
            for kernels in (native.kernels(), reference):
                with pytest.raises(IndexError):
                    getattr(kernels, name)(*case)

    def test_negative_energy_raises_math_domain_error(self):
        case = ([1e-6], 0, 1, 1e-4, Capacitor(1e-6).chain(), math.inf,
                (-1e-9, 0.0, 0.0, 0.0))
        for kernels in (native.kernels(), reference):
            with pytest.raises(ValueError, match="math domain error"):
                kernels.charge_many(*case)


# -- the fleet's row kernel ---------------------------------------------------


@st.composite
def row_cases(draw):
    """``charge_rows`` arguments: up to 12 rows of flat, curved and
    ideal stores, some not alive, each with its own power and target."""
    n = draw(st.integers(1, 12))
    dt = draw(st.sampled_from([1e-4, 1e-3, 1e-6]))
    chains, states, p, targets = [], [], [], []
    for _ in range(n):
        chain, energy = draw(stores())
        power = draw(powers)
        reached = reference.chain_step(chain, energy, power, dt)[0]
        # inf, reached on this tick (0.0), exactly the energy this tick
        # reaches, one ulp above it, or anywhere.
        targets.append(draw(
            st.sampled_from([math.inf, 0.0, reached,
                             math.nextafter(reached, math.inf)])
            | st.floats(0.0, chain[1])
        ))
        chains.append(chain)
        states.append((energy, *draw(st.tuples(*[st.floats(0.0, 1.0)] * 3))))
        p.append(power)
    alive = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    pending = draw(st.lists(st.integers(0, 10**6), min_size=n, max_size=n))
    return (np.array(p), dt, np.array(chains).T.copy(), np.array(alive),
            np.array(targets), np.array(states).T.copy(),
            np.array(pending, dtype=np.int64))


def rows_by_chain_step(p, dt, chain, alive, target, state, pending):
    """What ``charge_rows`` must do, row by row through chain_step."""
    state, pending, crossed = state.copy(), pending.copy(), []
    for row in np.flatnonzero(alive).tolist():
        energy, charged, leaked, wasted = reference.chain_step(
            tuple(chain[:, row].tolist()), float(state[0, row]),
            float(p[row]), dt,
        )
        if energy >= target[row]:
            crossed.append(row)
            continue
        totals = state[1:, row].tolist()
        state[:, row] = (energy, totals[0] + charged, totals[1] + leaked,
                         totals[2] + wasted)
        pending[row] += 1
    return crossed or None, state, pending


def run_rows(kernels, p, dt, chain, alive, target, state, pending):
    """``kernels.charge_rows`` on copies of the in-place arguments."""
    state, pending = state.copy(), pending.copy()
    crossed = kernels.charge_rows(p, dt, chain, alive, target, state, pending)
    return crossed, state, pending


def as_bits(out):
    crossed, state, pending = out
    return crossed, state.tobytes(), pending.tolist()


#: The one-ulp capacity clip on a fleet row, beside a dead row and an
#: ideal store fed a denormal power.
OVERSHOOT_ROWS = (
    np.array([1.0, 1.0, 5e-324]), 1e-4,
    np.array([OVERSHOOT_STORE.chain(), OVERSHOOT_STORE.chain(),
              IdealStorage(1e-3).chain()]).T.copy(),
    np.array([True, False, True]), np.full(3, math.inf),
    np.array([(OVERSHOOT_ENERGY, 0.0, 0.0, 0.0)] * 3).T.copy(),
    np.zeros(3, dtype=np.int64),
)


class TestChargeRows:
    """``charge_rows`` is ``chain_step`` applied to every alive row, in
    C and in its numpy twin; the twin is tested on every backend."""

    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(case=row_cases())
    @example(case=OVERSHOOT_ROWS)
    def test_every_alive_row_is_one_chain_step(self, case):
        want = as_bits(rows_by_chain_step(*case))
        for kernels in {reference, native.kernels()}:
            assert as_bits(run_rows(kernels, *case)) == want, kernels.BACKEND

    def test_capacity_clip_overshoot_is_kept(self):
        for kernels in {reference, native.kernels()}:
            crossed, state, pending = run_rows(kernels, *OVERSHOOT_ROWS)
            assert crossed is None
            assert state[0, 0] == math.nextafter(
                OVERSHOOT_STORE.capacity_j, 1.0)
            # The dead row keeps its bits and its pending count.
            assert state[:, 1].tolist() == [OVERSHOOT_ENERGY, 0.0, 0.0, 0.0]
            assert pending.tolist() == [1, 0, 1]

    @needs_compiler
    def test_c_rejects_a_wrong_layout_or_dtype(self):
        p, dt, chain, alive, target, state, pending = OVERSHOOT_ROWS
        for bad in (
            dict(chain=chain.T.copy()),            # row-major (n, 8)
            dict(state=state.T),                   # not C-contiguous
            dict(alive=alive.astype(np.int8)),
            dict(pending=pending.astype(np.int32)),
            dict(p=p[:2]),
        ):
            args = dict(p=p, dt_s=dt, chain=chain, alive=alive,
                        target=target, state=state.copy(),
                        pending=pending.copy())
            args.update(bad)
            with pytest.raises((TypeError, ValueError)):
                native.kernels().charge_rows(*args.values())


# -- the NV16 loop -------------------------------------------------------------


#: Where a drawn register or immediate aims a load or store: both ends
#: of RAM and NVM, the output and input ports, and other MMIO words.
ADDRESSES = [0, 1, NVM_BASE - 1, NVM_BASE, NVM_BASE + 1, MMIO_BASE - 1,
             OUTPUT_PORT, INPUT_PORT, INPUT_PORT + 1, 0xFFFF]

#: Register values outside 0..0xFFFF, which the C loop declines.
NONCANONICAL = [0x10000, 0x1FFFF, -1, 2**70]

MODELS = [EnergyModel(), EnergyModel(frequency_hz=7e5, vdd=0.9)]


@st.composite
def nv16_cases(draw):
    """A program over all 36 opcodes and a CPU state to run it from.

    Branch and jump targets fall inside the program, just past it or
    anywhere; ``r0`` holds a nonzero word it must never read; budgets
    run out at 0, inside the first cycle and mid-instruction; caps of 0
    and 1 trip on the first instruction.
    """
    n = draw(st.integers(1, 16))
    # Mostly inside the program, so segments run for a while.
    inside = st.integers(0, n - 1)
    targets = st.one_of(
        *[inside] * 6, st.sampled_from([n, n + 7, 0xFFFF, -1]),
        st.integers(IMM_MIN, IMM_MAX),
    )
    imms = (st.integers(-4, 4) | st.sampled_from(ADDRESSES)
            | st.integers(IMM_MIN, IMM_MAX))
    registers = st.integers(0, 7)
    program = []
    # Every opcode, with one draw in four a load or a store.
    opcodes = st.one_of(*[st.sampled_from(list(Opcode))] * 3,
                        st.sampled_from([Opcode.LD, Opcode.ST]))
    for _ in range(n):
        opcode = draw(opcodes)
        rd, rs1, rs2 = draw(st.tuples(registers, registers, registers))
        if opcode in (Opcode.LD, Opcode.ST, Opcode.JALR):
            # r0 as the base makes the immediate the address or target.
            rs1 = draw(st.just(0) | registers)
        if opcode in (Opcode.LD, Opcode.ST):
            imm = draw(st.one_of(*[st.sampled_from(ADDRESSES)] * 3, imms))
        elif opcode in BRANCH_OPCODES or opcode in (Opcode.JAL, Opcode.JALR):
            imm = draw(targets)
        else:
            imm = draw(imms)
        program.append(Instruction(opcode, rd, rs1, rs2, imm))
    if draw(st.booleans()):
        # Loop back rather than run off the end.
        program.append(Instruction(Opcode.JAL, draw(registers), imm=0))
    n = len(program)
    words = st.sampled_from(ADDRESSES) | st.integers(0, 0xFFFF)
    regs = [draw(st.integers(1, 0xFFFF))] + draw(
        st.lists(words, min_size=7, max_size=7))
    # A register or a data word outside 0..0xFFFF: the loop declines
    # the segment, or stops before the load, and the blocks run it.
    odd = draw(st.sampled_from([None] * 4 + ["register", "word"]))
    if odd == "register":
        regs[draw(st.integers(1, 7))] = draw(st.sampled_from(NONCANONICAL))
    image = {address: draw(st.integers(0, 0xFFFF))
             for address in ADDRESSES if address < MMIO_BASE}
    if odd == "word":
        image[draw(st.sampled_from(sorted(image)))] = 0x12345
    model = draw(st.sampled_from(MODELS))
    time_used = draw(st.just(0.0) | st.floats(0.0, 1e-3))
    # No cycle (nothing runs), part of one, or a few hundred, with a
    # remainder that can end the budget mid-instruction; or no budget
    # and a cap.
    cycles = draw(st.sampled_from(["none", "few", "inf"] + ["many"] * 5))
    if cycles == "inf":
        budget = math.inf
        cap = draw(st.integers(0, 300))
    else:
        whole = {"none": 0, "few": draw(st.integers(0, 3)),
                 "many": draw(st.integers(4, 400))}[cycles]
        fraction = draw(st.sampled_from([0.0, 0.25, 0.5, 0.999]))
        budget = time_used + (whole + fraction) * model.cycle_time_s
        cap = draw(st.sampled_from([0, 1, 10**20] + ["some"] * 6))
        if cap == "some":
            cap = draw(st.integers(2, 400))
    pc = draw(st.sampled_from(["inside"] * 14 + [n, -1]))
    return dict(
        program=program, model=model, regs=regs, image=image, odd=odd,
        pc=draw(st.integers(0, n - 1)) if pc == "inside" else pc,
        halted=draw(st.sampled_from([False] * 31 + [True])),
        inputs=draw(st.lists(st.integers(0, 0xFFFF), max_size=3)),
        outputs=draw(st.lists(st.integers(0, 0xFFFF), max_size=2)),
        counters=draw(st.tuples(*[st.integers(0, 10**6)] * 6)),
        cpu_energy=draw(st.just(0.0) | st.floats(0.0, 1e-3)),
        budget=budget, time_used=time_used,
        energy=draw(st.just(0.0) | st.floats(0.0, 1e-6)), cap=cap,
    )


def nv16_cpu(case):
    """A fresh CPU in the case's state (one copy per executor)."""
    memory = MemoryMap()
    for address, word in case["image"].items():
        memory._words[address] = word
    memory.input_queue = list(case["inputs"])
    memory.output = list(case["outputs"])
    (memory.ram_reads, memory.ram_writes, memory.nvm_reads,
     memory.nvm_writes, retired, cycles) = case["counters"]
    cpu = CPU(case["program"], memory, case["model"])
    cpu.state.regs = list(case["regs"])
    cpu.state.pc = case["pc"]
    cpu.state.halted = case["halted"]
    cpu.instructions_retired, cpu.cycles = retired, cycles
    cpu.energy_j = case["cpu_energy"]
    return cpu


def nv16_run(executor, case):
    """Everything one segment leaves behind, floats by bit pattern."""
    cpu = nv16_cpu(case)
    segment = executor.run(cpu, case["budget"], case["time_used"],
                           case["energy"], case["cap"])
    memory = cpu.memory
    return (
        segment.executed, bits(segment.energy_j), bits(segment.time_used_s),
        segment.capped, repr(segment.fault),
        cpu.state.regs, cpu.state.pc, cpu.state.halted,
        cpu.instructions_retired, cpu.cycles, bits(cpu.energy_j),
        (memory.ram_reads, memory.ram_writes, memory.nvm_reads,
         memory.nvm_writes),
        memory.output, memory.input_queue, memory._words,
    )


def nv16_program(source):
    """Assembled NV16 source as a decoded program."""
    return assemble_kernel("case", source).program.instructions


@needs_compiler
class TestNV16Loop:
    """``BlockEngine.run`` on the C loop equals ``Interpreter.run``."""

    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(case=nv16_cases())
    def test_segment_equals_the_interpreter(self, case):
        engine = BlockEngine(case["program"], case["model"])
        assert nv16_run(engine, case) == nv16_run(Interpreter(), case)
        # The loop ran the segment unless the core was halted or a
        # register was outside 0..0xFFFF.
        declined = case["halted"] or case["odd"] == "register"
        assert engine.profile_counts()["native"] == (0 if declined else 1)

    @pytest.mark.parametrize("program, regs", [
        # JALR reads rs1 before it writes the link register.
        ([Instruction(Opcode.JALR, 1, 1, imm=1), Instruction(Opcode.HALT),
          Instruction(Opcode.HALT), Instruction(Opcode.HALT)], [0, 2]),
        # imm % 16 and >> floor in Python; C truncates.
        ([Instruction(Opcode.SHLI, 1, 2, imm=-1),
          Instruction(Opcode.SHRI, 3, 2, imm=-15),
          Instruction(Opcode.SARI, 4, 2, imm=-13),
          Instruction(Opcode.SAR, 5, 2, 6), Instruction(Opcode.HALT)],
         [0, 0, 0x8001, 0, 0, 0, 0x13]),
        # Division by zero has defined results; r0 reads as 0.
        ([Instruction(Opcode.DIVU, 1, 2, 0), Instruction(Opcode.REMU, 3, 2, 0),
          Instruction(Opcode.ADD, 4, 0, 2), Instruction(Opcode.HALT)],
         [0x1234, 0, 7]),
        # LD r0 still reads (and counts); ST to the output port appends.
        ([Instruction(Opcode.LD, 0, 0, imm=NVM_BASE),
          Instruction(Opcode.ST, 0, 0, 2, imm=OUTPUT_PORT),
          Instruction(Opcode.SLTI, 1, 2, imm=-1),
          Instruction(Opcode.SLTIU, 3, 2, imm=-1), Instruction(Opcode.HALT)],
         [0, 0, 0xFFFE]),
    ], ids=["jalr-link", "shifts", "divide-by-zero", "r0-load-and-output"])
    def test_traps(self, program, regs):
        engine = BlockEngine(program, EnergyModel())
        case = dict(program=program, model=EnergyModel(),
                    regs=(regs + [0] * 8)[:8], image={NVM_BASE: 5}, pc=0,
                    halted=False, inputs=[], outputs=[], counters=(0,) * 6,
                    cpu_energy=0.0, budget=1.0, time_used=0.0, energy=0.0,
                    cap=100)
        got = nv16_run(engine, case)
        assert got == nv16_run(Interpreter(), case)
        assert got[7], "the program halts"
        assert engine.profile_counts()["native"] == 1

    def test_a_halt_that_trips_the_cap_stays_halted(self):
        program = nv16_program("    addi r1, r0, 1\n    halt\n")
        engine = BlockEngine(program, EnergyModel())
        case = dict(program=program, model=EnergyModel(), regs=[0] * 8,
                    image={}, pc=0, halted=False, inputs=[], outputs=[],
                    counters=(0,) * 6, cpu_energy=0.0, budget=1.0,
                    time_used=0.0, energy=0.0, cap=1)
        got = nv16_run(engine, case)
        assert got == nv16_run(Interpreter(), case)
        executed, capped, halted = got[0], got[3], got[7]
        assert (executed, capped, halted) == (2, True, True)

    def test_an_mmio_read_hands_the_segment_to_the_blocks(self):
        """The loop stops before the input-port load; the generated
        blocks pop the queue and finish the segment."""
        program = nv16_program(
            "    addi r1, r0, 3\n    li r2, 0xF001\n    ld r3, 0(r2)\n"
            "    li r4, 0xF000\n    st r3, 0(r4)\n    halt\n"
        )
        engine = BlockEngine(program, EnergyModel())
        case = dict(program=program, model=EnergyModel(), regs=[0] * 8,
                    image={}, pc=0, halted=False, inputs=[41], outputs=[],
                    counters=(0,) * 6, cpu_energy=0.0, budget=1.0,
                    time_used=0.0, energy=0.0, cap=100)
        got = nv16_run(engine, case)
        assert got == nv16_run(Interpreter(), case)
        assert got[12] == [41] and got[13] == []
        counts = engine.profile_counts()
        assert counts["native"] == 1
        assert counts["fused"] + counts["stepped"] > 0


# -- end to end ---------------------------------------------------------------


def simulate(builder, trace, **engines):
    return SystemSimulator(
        trace, builder(AbstractWorkload()), rectifier=standard_rectifier(),
        stop_when_finished=False, **engines,
    ).run().to_dict()


@needs_compiler
@pytest.mark.parametrize("builder", [build_nvp, build_wait_compute,
                                     build_checkpoint])
def test_reference_backend_equals_native_and_scalar(builder, monkeypatch):
    native_traces = [wristwatch_trace(2.0, seed=5),
                     square_trace(400e-6, 0.0, 0.5, 0.3, 2.0)]
    native_runs = [simulate(builder, trace) for trace in native_traces]
    scalar_runs = [
        simulate(builder, trace, use_fast_forward=False,
                 use_exact_batch=False)
        for trace in native_traces
    ]
    monkeypatch.setattr(native, "kernels", lambda: reference)
    reference_traces = [wristwatch_trace(2.0, seed=5),
                        square_trace(400e-6, 0.0, 0.5, 0.3, 2.0)]
    for got, want in zip(reference_traces, native_traces):
        assert got.samples_w.tobytes() == want.samples_w.tobytes()
    reference_runs = [simulate(builder, trace) for trace in reference_traces]
    assert reference_runs == native_runs == scalar_runs


# -- the first-use build --------------------------------------------------------


def run_python(code, env, timeout=120):
    """Run ``code`` in a fresh interpreter with ``src`` on the path."""
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env={**os.environ, "PYTHONPATH": SRC, **env},
        capture_output=True, text=True, timeout=timeout,
    )


PROBE = """
from repro import native
native.kernels()
print(native.backend())
print(native.reason())
"""


@needs_compiler
def test_concurrent_first_builds_leave_one_module(tmp_path):
    # Four builders (more than a two-core host runs at once) race on an
    # empty cache; each replaces the module atomically.
    env = {**os.environ, "PYTHONPATH": SRC, "XDG_CACHE_HOME": str(tmp_path)}
    procs = [
        subprocess.Popen([sys.executable, "-c", PROBE], env=env,
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         text=True)
        for _ in range(4)
    ]
    outputs = [proc.communicate(timeout=300) for proc in procs]
    assert [out.split()[0] for out, _ in outputs] == ["native"] * 4, outputs
    # One module, and no temp file or build directory left behind.
    (name,) = os.listdir(tmp_path / "nvpsim")
    assert name.startswith("_kernels-")
    assert name.endswith(importlib.machinery.EXTENSION_SUFFIXES[0])


def test_failed_build_falls_back_once(tmp_path):
    compiler = tmp_path / "cc"
    started = tmp_path / "compiler-started"
    compiler.write_text(f"#!/bin/sh\ntouch {started}\nexit 1\n")
    compiler.chmod(0o755)
    env = {"XDG_CACHE_HOME": str(tmp_path / "cache"), "CC": str(compiler)}
    first = run_python(PROBE, env)
    backend, why = first.stdout.splitlines()
    assert backend == "python"
    assert why.startswith("build failed:") and "delete it to retry" in why
    assert started.exists()
    (marker,) = os.listdir(tmp_path / "cache" / "nvpsim")
    assert marker.endswith(".failed")
    started.unlink()
    second = run_python(PROBE, env)
    assert second.stdout.splitlines() == [backend, why]
    assert not started.exists()


def test_importing_the_cli_loads_no_kernel():
    probe = run_python(
        """
        import sys
        import repro.cli
        from repro import native
        print(native.backend(), "setuptools" in sys.modules,
              [name for name in sys.modules if "_kernels" in name])
        """,
        {},
    )
    assert probe.stdout.split() == ["None", "False", "[]"], probe.stderr


def test_a_warm_sweep_loads_no_kernel(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "name": "warm", "base": {"source": "wristwatch", "duration_s": 0.2},
        "axes": {"seed": [1, 2]},
    }))
    sweep = f"""
        import sys
        from repro import cli, native
        cli.main(["sweep", {str(spec)!r}, "--jobs", "2", "--quiet"])
        print(native.backend())
        """
    env = {"REPRO_CACHE_DIR": str(tmp_path / "cache"),
           "REPRO_LEDGER_DIR": str(tmp_path / "ledger")}
    cold = run_python(sweep, env)
    warm = run_python(sweep, env)
    assert cold.stdout.split()[-1] == native.backend(), cold.stderr
    assert warm.stdout.split()[-1] == "None", warm.stderr


# -- the backend that ran, reported -------------------------------------------


def test_profile_manifest_and_ledger_name_the_backend(tmp_path, monkeypatch,
                                                      capsys):
    from repro.cli import main

    monkeypatch.setenv("REPRO_LEDGER_DIR", str(tmp_path / "ledger"))
    manifest = tmp_path / "manifest.json"
    assert main(["simulate", "--duration", "0.2", "--profile",
                 "--manifest", str(manifest)]) == 0
    assert f"backend : {native.backend()}" in capsys.readouterr().err
    assert json.loads(manifest.read_text())["backend"] == native.backend()
    (line,) = (tmp_path / "ledger" / "ledger.jsonl").read_text().splitlines()
    assert json.loads(line)["backend"] == native.backend()
