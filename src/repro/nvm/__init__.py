"""Nonvolatile-memory device models.

The DATE'17 tutorial surveys the NVM technologies NVPs are built from —
FeRAM (TI MSP430FR-class MCUs, the 3 µs-wake-up ferroelectric NVP),
ReRAM (the 65 nm ISSCC'16 NVP with adaptive data retention and
self-write-termination), STT-MRAM, PCM, Flash and emerging FeFET
latches.  This package provides:

* a :class:`~repro.nvm.technology.NVMTechnology` catalog with
  write/read energy, latency, retention, endurance and wake-up figures,
* an analytic STT-MRAM retention/write-energy model
  (:mod:`repro.nvm.sttram`) capturing the thermal-stability tradeoff
  that makes retention-relaxed ("approximate") backup profitable,
* retention-shaping policies and a bit-failure model
  (:mod:`repro.nvm.retention`),
* a behavioral NVM array with energy accounting
  (:mod:`repro.nvm.array`), and
* a SEC-DED code for backed-up words (:mod:`repro.nvm.ecc`).
"""

from repro.nvm.technology import (
    FERAM,
    FEFET,
    NOR_FLASH,
    NVMTechnology,
    PCM,
    RERAM,
    SRAM_REFERENCE,
    STT_MRAM,
    TECHNOLOGIES,
    technology_by_name,
)
from repro.nvm.sttram import (
    STTParameters,
    optimal_pulse_width,
    required_delta,
    retention_from_delta,
    write_current,
    write_energy,
    write_energy_at_optimum,
)
from repro.nvm.retention import (
    LinearPolicy,
    LogPolicy,
    ParabolaPolicy,
    RetentionPolicy,
    UniformPolicy,
    failure_probability,
    sample_bit_failures,
)
from repro.nvm.array import NVMArray
from repro.nvm.ecc import DecodeStatus, decode as ecc_decode, encode as ecc_encode

__all__ = [
    "DecodeStatus",
    "FERAM",
    "FEFET",
    "ecc_decode",
    "ecc_encode",
    "LinearPolicy",
    "LogPolicy",
    "NOR_FLASH",
    "NVMArray",
    "NVMTechnology",
    "PCM",
    "ParabolaPolicy",
    "RERAM",
    "RetentionPolicy",
    "SRAM_REFERENCE",
    "STTParameters",
    "STT_MRAM",
    "TECHNOLOGIES",
    "UniformPolicy",
    "failure_probability",
    "optimal_pulse_width",
    "required_delta",
    "retention_from_delta",
    "sample_bit_failures",
    "technology_by_name",
    "write_current",
    "write_energy",
    "write_energy_at_optimum",
]
