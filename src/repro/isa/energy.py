"""Cycle and energy accounting for NV16 instructions.

The numbers are calibrated so that a core running at 1 MHz draws about
0.21 mW on a typical instruction mix — the power reported for the
1 MHz NVP prototypes the DATE'17 tutorial surveys.  Dynamic energy per
instruction is frequency-independent (it scales with VDD² only), while
static leakage contributes ``P_static / f`` per cycle, which is what
makes very low clock frequencies inefficient under harvested power.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict

from repro.isa.instructions import BRANCH_OPCODES, Instruction, Opcode


class InstrClass(enum.Enum):
    """Energy/timing classes for NV16 instructions."""

    ALU = "alu"
    MUL = "mul"
    DIV = "div"
    LOAD = "load"
    STORE = "store"
    BRANCH = "branch"
    JUMP = "jump"
    NOP = "nop"
    HALT = "halt"


_CLASS_BY_OPCODE: Dict[Opcode, InstrClass] = {}
for _op in Opcode:
    if _op in (Opcode.MUL, Opcode.MULH):
        _cls = InstrClass.MUL
    elif _op in (Opcode.DIVU, Opcode.REMU):
        _cls = InstrClass.DIV
    elif _op is Opcode.LD:
        _cls = InstrClass.LOAD
    elif _op is Opcode.ST:
        _cls = InstrClass.STORE
    elif _op in BRANCH_OPCODES:
        _cls = InstrClass.BRANCH
    elif _op in (Opcode.JAL, Opcode.JALR):
        _cls = InstrClass.JUMP
    elif _op is Opcode.NOP:
        _cls = InstrClass.NOP
    elif _op is Opcode.HALT:
        _cls = InstrClass.HALT
    else:
        _cls = InstrClass.ALU
    _CLASS_BY_OPCODE[_op] = _cls


def classify(instr: Instruction) -> InstrClass:
    """Return the energy/timing class of an instruction."""
    return _CLASS_BY_OPCODE[instr.opcode]


#: Cycles per instruction class (simple in-order core, no cache).
DEFAULT_CYCLES: Dict[InstrClass, int] = {
    InstrClass.ALU: 1,
    InstrClass.MUL: 2,
    InstrClass.DIV: 8,
    InstrClass.LOAD: 2,
    InstrClass.STORE: 2,
    InstrClass.BRANCH: 1,
    InstrClass.JUMP: 2,
    InstrClass.NOP: 1,
    InstrClass.HALT: 1,
}

#: Dynamic energy per instruction class, joules, at VDD_NOM.
DEFAULT_DYNAMIC_ENERGY: Dict[InstrClass, float] = {
    InstrClass.ALU: 0.17e-9,
    InstrClass.MUL: 0.34e-9,
    InstrClass.DIV: 1.30e-9,
    InstrClass.LOAD: 0.36e-9,
    InstrClass.STORE: 0.38e-9,
    InstrClass.BRANCH: 0.15e-9,
    InstrClass.JUMP: 0.30e-9,
    InstrClass.NOP: 0.08e-9,
    InstrClass.HALT: 0.05e-9,
}

VDD_NOM = 1.0
DEFAULT_STATIC_POWER = 25e-6  # 25 µW leakage at VDD_NOM.
DEFAULT_FREQUENCY = 1e6  # 1 MHz baseline clock.


@dataclass
class EnergyModel:
    """Per-instruction energy/cycle model with f/VDD scaling.

    Attributes:
        frequency_hz: core clock frequency.
        vdd: supply voltage; dynamic energy scales with ``(vdd/VDD_NOM)²``.
        static_power_w: leakage power, charged per elapsed cycle.
        cycles: cycles per instruction class.
        dynamic_energy_j: dynamic energy per instruction class at
            ``VDD_NOM``.
    """

    frequency_hz: float = DEFAULT_FREQUENCY
    vdd: float = VDD_NOM
    static_power_w: float = DEFAULT_STATIC_POWER
    cycles: Dict[InstrClass, int] = field(
        default_factory=lambda: dict(DEFAULT_CYCLES)
    )
    dynamic_energy_j: Dict[InstrClass, float] = field(
        default_factory=lambda: dict(DEFAULT_DYNAMIC_ENERGY)
    )

    def __post_init__(self) -> None:
        if self.frequency_hz <= 0:
            raise ValueError("frequency must be positive")
        if self.vdd <= 0:
            raise ValueError("vdd must be positive")
        if self.static_power_w < 0:
            raise ValueError("static power cannot be negative")

    @property
    def cycle_time_s(self) -> float:
        """Duration of one clock cycle in seconds."""
        return 1.0 / self.frequency_hz

    def instruction_cycles(self, cls: InstrClass) -> int:
        """Cycles consumed by one instruction of class ``cls``."""
        return self.cycles[cls]

    def instruction_energy(self, cls: InstrClass) -> float:
        """Total (dynamic + leakage) energy for one instruction, joules."""
        scale = (self.vdd / VDD_NOM) ** 2
        dynamic = self.dynamic_energy_j[cls] * scale
        leakage = self.static_power_w * self.cycles[cls] * self.cycle_time_s
        return dynamic + leakage

    def instruction_time(self, cls: InstrClass) -> float:
        """Wall-clock time for one instruction, seconds."""
        return self.cycles[cls] * self.cycle_time_s

    def scaled(self, frequency_hz: float | None = None, vdd: float | None = None) -> "EnergyModel":
        """Return a copy with a different operating point."""
        return EnergyModel(
            frequency_hz=self.frequency_hz if frequency_hz is None else frequency_hz,
            vdd=self.vdd if vdd is None else vdd,
            static_power_w=self.static_power_w,
            cycles=dict(self.cycles),
            dynamic_energy_j=dict(self.dynamic_energy_j),
        )


def dvfs_model(
    frequency_hz: float,
    f_ref_hz: float = DEFAULT_FREQUENCY,
    v_min: float = 0.65,
    v_slope: float = 0.35,
    v_alpha: float = 0.8,
    static_power_w: float = DEFAULT_STATIC_POWER,
) -> EnergyModel:
    """Energy model at a DVFS operating point.

    Running faster requires a higher supply voltage (roughly
    ``VDD = v_min + v_slope * (f / f_ref) ** v_alpha``), so dynamic
    energy per instruction grows ~quadratically with clock while
    leakage per instruction shrinks — the tension that gives
    frequency scaling an income-dependent optimum.
    """
    if frequency_hz <= 0 or f_ref_hz <= 0:
        raise ValueError("frequencies must be positive")
    vdd = v_min + v_slope * (frequency_hz / f_ref_hz) ** v_alpha
    # Leakage grows mildly with the supply voltage.
    static = static_power_w * (vdd / VDD_NOM)
    return EnergyModel(
        frequency_hz=frequency_hz, vdd=vdd, static_power_w=static
    )


#: A generic embedded instruction mix (fractions sum to 1.0).
DEFAULT_MIX: Dict[InstrClass, float] = {
    InstrClass.ALU: 0.47,
    InstrClass.MUL: 0.04,
    InstrClass.DIV: 0.01,
    InstrClass.LOAD: 0.20,
    InstrClass.STORE: 0.10,
    InstrClass.BRANCH: 0.13,
    InstrClass.JUMP: 0.04,
    InstrClass.NOP: 0.01,
}
