"""Catalog of nonvolatile-memory technologies used to build NVPs.

Figures are representative, order-of-magnitude values taken from the
published NVP prototypes and device surveys the DATE'17 tutorial draws
on (FeRAM MCUs such as the MSP430FR family and the 3 µs-wake-up
ferroelectric NVP; the 65 nm ReRAM NVP; STT-MRAM NVPs; PCM and NOR
Flash for contrast; FeFET/NCFET latches as the emerging option).  They
are *not* tied to a single datasheet — the experiments only rely on
the relative ordering and magnitudes being right.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

SECONDS_PER_YEAR = 3.15576e7
SECONDS_PER_DAY = 86_400.0


@dataclass(frozen=True)
class NVMTechnology:
    """Device-level figures of merit for one memory technology.

    Attributes:
        name: short identifier (``"FeRAM"``, ``"ReRAM"``, ...).
        write_energy_j_per_bit: programming energy per bit at nominal
            retention.
        read_energy_j_per_bit: sensing energy per bit.
        write_latency_s: per-access write latency (one word, all bits
            in parallel).
        read_latency_s: per-access read latency.
        retention_s: nominal retention time.
        endurance_cycles: write endurance.
        wakeup_time_s: time from power-good to execution resuming when
            an NVP's state lives in this technology (restore circuit +
            settling).
        volatile: True only for the SRAM reference row.
        supports_retention_relaxation: whether the write circuit can
            trade retention for write energy (the ISSCC'16 ReRAM NVP's
            adaptive-retention knob; also well studied for STT-MRAM).
    """

    name: str
    write_energy_j_per_bit: float
    read_energy_j_per_bit: float
    write_latency_s: float
    read_latency_s: float
    retention_s: float
    endurance_cycles: float
    wakeup_time_s: float
    volatile: bool = False
    supports_retention_relaxation: bool = False

    def __post_init__(self) -> None:
        for attr in (
            "write_energy_j_per_bit",
            "read_energy_j_per_bit",
            "write_latency_s",
            "read_latency_s",
            "endurance_cycles",
            "wakeup_time_s",
        ):
            if getattr(self, attr) < 0:
                raise ValueError(f"{attr} cannot be negative")

    # -- backup / restore costs for a state of `bits` bits --------------

    def backup_energy_j(self, bits: int, parallelism: int = 64) -> float:
        """Energy to back up ``bits`` bits of state.

        ``parallelism`` is accepted for signature symmetry with
        :meth:`backup_time_s`; energy is per-bit and does not depend on
        it.
        """
        if bits < 0:
            raise ValueError("bits cannot be negative")
        del parallelism
        return bits * self.write_energy_j_per_bit

    def backup_time_s(self, bits: int, parallelism: int = 64) -> float:
        """Time to back up ``bits`` bits with ``parallelism`` bits/write.

        NVPs use distributed nonvolatile flip-flops, so backup is highly
        parallel; ``parallelism`` is the number of bits written per
        write-latency quantum.
        """
        if bits < 0:
            raise ValueError("bits cannot be negative")
        if parallelism <= 0:
            raise ValueError("parallelism must be positive")
        import math

        return math.ceil(bits / parallelism) * self.write_latency_s

    def restore_energy_j(self, bits: int) -> float:
        """Energy to read ``bits`` bits of state back."""
        if bits < 0:
            raise ValueError("bits cannot be negative")
        return bits * self.read_energy_j_per_bit

    def restore_time_s(self, bits: int, parallelism: int = 64) -> float:
        """Wake-up time plus parallel read-back time for ``bits`` bits."""
        if bits < 0:
            raise ValueError("bits cannot be negative")
        if parallelism <= 0:
            raise ValueError("parallelism must be positive")
        import math

        return self.wakeup_time_s + math.ceil(bits / parallelism) * self.read_latency_s


SRAM_REFERENCE = NVMTechnology(
    name="SRAM",
    write_energy_j_per_bit=0.05e-12,
    read_energy_j_per_bit=0.05e-12,
    write_latency_s=1e-9,
    read_latency_s=1e-9,
    retention_s=0.0,
    endurance_cycles=1e16,
    wakeup_time_s=0.0,
    volatile=True,
)

FERAM = NVMTechnology(
    name="FeRAM",
    write_energy_j_per_bit=0.9e-12,
    read_energy_j_per_bit=0.7e-12,  # destructive read needs restore
    write_latency_s=50e-9,
    read_latency_s=50e-9,
    retention_s=10 * SECONDS_PER_YEAR,
    endurance_cycles=1e14,
    wakeup_time_s=3e-6,
)

RERAM = NVMTechnology(
    name="ReRAM",
    write_energy_j_per_bit=2.0e-12,
    read_energy_j_per_bit=0.3e-12,
    write_latency_s=50e-9,
    read_latency_s=10e-9,
    retention_s=10 * SECONDS_PER_YEAR,
    endurance_cycles=1e8,
    wakeup_time_s=1.5e-6,
    supports_retention_relaxation=True,
)

STT_MRAM = NVMTechnology(
    name="STT-MRAM",
    write_energy_j_per_bit=1.5e-12,
    read_energy_j_per_bit=0.2e-12,
    write_latency_s=10e-9,
    read_latency_s=5e-9,
    retention_s=10 * SECONDS_PER_YEAR,
    endurance_cycles=1e15,
    wakeup_time_s=2e-6,
    supports_retention_relaxation=True,
)

PCM = NVMTechnology(
    name="PCM",
    write_energy_j_per_bit=12.0e-12,
    read_energy_j_per_bit=0.5e-12,
    write_latency_s=150e-9,
    read_latency_s=20e-9,
    retention_s=10 * SECONDS_PER_YEAR,
    endurance_cycles=1e9,
    wakeup_time_s=5e-6,
    supports_retention_relaxation=True,
)

NOR_FLASH = NVMTechnology(
    name="NOR-Flash",
    write_energy_j_per_bit=1.0e-9,
    read_energy_j_per_bit=0.5e-12,
    write_latency_s=10e-6,
    read_latency_s=50e-9,
    retention_s=20 * SECONDS_PER_YEAR,
    endurance_cycles=1e5,
    wakeup_time_s=100e-6,
)

FEFET = NVMTechnology(
    name="FeFET",
    write_energy_j_per_bit=0.1e-12,
    read_energy_j_per_bit=0.05e-12,
    write_latency_s=10e-9,
    read_latency_s=5e-9,
    retention_s=10 * SECONDS_PER_YEAR,
    endurance_cycles=1e10,
    wakeup_time_s=0.5e-6,
)

#: All catalog rows, in presentation order (volatile reference first).
TECHNOLOGIES: Tuple[NVMTechnology, ...] = (
    SRAM_REFERENCE,
    FERAM,
    RERAM,
    STT_MRAM,
    PCM,
    NOR_FLASH,
    FEFET,
)

_BY_NAME: Dict[str, NVMTechnology] = {tech.name.lower(): tech for tech in TECHNOLOGIES}


def technology_by_name(name: str) -> NVMTechnology:
    """Look up a catalog technology by (case-insensitive) name.

    Raises:
        KeyError: if the name is not in the catalog.
    """
    key = name.lower()
    if key not in _BY_NAME:
        known = ", ".join(sorted(tech.name for tech in TECHNOLOGIES))
        raise KeyError(f"unknown NVM technology {name!r}; known: {known}")
    return _BY_NAME[key]
