"""Segmented data-memory model for the NV16 core.

The data address space is 64 Ki 16-bit words, split into three regions
mirroring the memory organisation of NVP prototypes:

* ``RAM``  ``0x0000 – 0x7FFF``: volatile SRAM working memory.  Its
  contents are lost on a power failure unless the backup controller
  saves them (register/NVFF state is handled separately by
  :mod:`repro.core`).
* ``NVM``  ``0x8000 – 0xEFFF``: nonvolatile data memory.  Survives
  power loss unconditionally; writes are charged to the attached NVM
  technology model by higher layers.
* ``MMIO`` ``0xF000 – 0xFFFF``: memory-mapped I/O.  Word writes to
  :data:`OUTPUT_PORT` append to the output queue (the moral equivalent
  of the GPIO ports NVP testbenches stream results through).
"""

from __future__ import annotations

import functools
from typing import List, Mapping, Tuple

from repro.isa.instructions import WORD_MASK

RAM_BASE = 0x0000
NVM_BASE = 0x8000
MMIO_BASE = 0xF000
ADDRESS_SPACE = 0x10000

#: Writes to this MMIO word are collected in :attr:`MemoryMap.output`.
OUTPUT_PORT = 0xF000
#: Reads from this MMIO word pop from :attr:`MemoryMap.input_queue`
#: (0 when the queue is empty).
INPUT_PORT = 0xF001


@functools.cache
def _ram_zeros() -> Tuple[int, ...]:
    """The wiped RAM segment: one shared immutable tuple, built on the
    first power failure so processes that never wipe do not hold it."""
    return (0,) * (NVM_BASE - RAM_BASE)


class MemoryMap:
    """Word-addressed data memory with RAM/NVM/MMIO segmentation.

    The memory tracks read/write counts per region so energy models can
    charge SRAM and NVM accesses differently.
    """

    def __init__(self) -> None:
        self._words = [0] * ADDRESS_SPACE
        self.output: List[int] = []
        self.input_queue: List[int] = []
        self.ram_reads = 0
        self.ram_writes = 0
        self.nvm_reads = 0
        self.nvm_writes = 0

    @staticmethod
    def region(address: int) -> str:
        """Return ``"ram"``, ``"nvm"`` or ``"mmio"`` for an address."""
        if not 0 <= address < ADDRESS_SPACE:
            raise ValueError(f"address {address:#x} outside 16-bit space")
        if address >= MMIO_BASE:
            return "mmio"
        if address >= NVM_BASE:
            return "nvm"
        return "ram"

    def read(self, address: int) -> int:
        """Read one 16-bit word."""
        # The region bounds are compared inline, not through region():
        # every LD and ST of a compiled kernel lands here.
        if address < NVM_BASE:
            if address >= RAM_BASE:
                self.ram_reads += 1
                return self._words[address]
        elif address < MMIO_BASE:
            self.nvm_reads += 1
            return self._words[address]
        elif address < ADDRESS_SPACE:
            if address == INPUT_PORT:
                return self.input_queue.pop(0) if self.input_queue else 0
            return self._words[address]
        raise ValueError(f"address {address:#x} outside 16-bit space")

    def write(self, address: int, value: int) -> None:
        """Write one 16-bit word (value truncated to 16 bits)."""
        value &= WORD_MASK
        if address < NVM_BASE:
            if address >= RAM_BASE:
                self.ram_writes += 1
                self._words[address] = value
                return
        elif address < MMIO_BASE:
            self.nvm_writes += 1
            self._words[address] = value
            return
        elif address < ADDRESS_SPACE:
            if address == OUTPUT_PORT:
                self.output.append(value)
            else:
                self._words[address] = value
            return
        raise ValueError(f"address {address:#x} outside 16-bit space")

    # -- bulk access used by the workload harness (not charged) ---------

    def load_image(self, image: Mapping[int, int]) -> None:
        """Initialise memory from an ``{address: word}`` mapping."""
        for address, value in image.items():
            if not 0 <= address < MMIO_BASE:
                raise ValueError(f"image word at {address:#x} overflows data memory")
            self._words[address] = value & WORD_MASK

    def clear_volatile(self) -> None:
        """Model a power failure: zero all RAM words, keep NVM and MMIO."""
        self._words[RAM_BASE:NVM_BASE] = _ram_zeros()
