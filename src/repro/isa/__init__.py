"""NV16: the behavioral MCU instruction-set substrate.

Nonvolatile-processor prototypes in the literature are built around
small 8051/MSP430-class cores.  ``repro.isa`` provides an equivalent
behavioral substrate: a compact 16-bit load/store ISA (``NV16``), a
two-pass assembler, a cycle- and energy-accounted CPU core, and a
segmented memory model (RAM / NVM / MMIO).

The ISA is deliberately simple and fully specified so that the rest of
the framework can reason about *instructions committed* (forward
progress) and *energy per instruction* — the quantities NVP papers
report — while remaining easy to write kernels for.
"""

from repro.isa.instructions import (
    Instruction,
    Opcode,
    REGISTER_NAMES,
    decode,
    encode,
)
from repro.isa.assembler import AssemblerError, Program, assemble
from repro.isa.memory import (
    MemoryMap,
    MMIO_BASE,
    NVM_BASE,
    OUTPUT_PORT,
    RAM_BASE,
)
from repro.isa.cpu import CPU, CPUState, ExecutionError
from repro.isa.energy import EnergyModel, InstrClass, classify

__all__ = [
    "AssemblerError",
    "CPU",
    "CPUState",
    "EnergyModel",
    "ExecutionError",
    "Instruction",
    "InstrClass",
    "MemoryMap",
    "MMIO_BASE",
    "NVM_BASE",
    "Opcode",
    "OUTPUT_PORT",
    "Program",
    "RAM_BASE",
    "REGISTER_NAMES",
    "assemble",
    "classify",
    "decode",
    "encode",
]
