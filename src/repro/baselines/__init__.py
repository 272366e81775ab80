"""Comparator platforms.

The DATE'17 tutorial positions the NVP against the two conventional
ways of computing on harvested power:

* **wait-and-compute** (:mod:`repro.baselines.waitcompute`): a
  volatile MCU sleeps while a large storage capacitor trickle-charges
  enough energy for an entire work unit, then runs it to completion —
  losing everything if the estimate was wrong.
* **software checkpointing** (:mod:`repro.baselines.checkpoint`):
  a volatile MCU with on-chip NVM (the MSP430-FRAM model embraced by
  Mementos / Hibernus / QuickRecall) copies its state through a
  software loop when a voltage trigger fires (Hibernus class).
* **oracle** (:mod:`repro.baselines.oracle`): uninterrupted execution
  at the trace's mean power — the upper bound used for normalisation.
"""

from repro.baselines.waitcompute import WaitComputePlatform
from repro.baselines.checkpoint import CheckpointConfig, CheckpointPlatform
from repro.baselines.oracle import OraclePlatform

__all__ = [
    "CheckpointConfig",
    "CheckpointPlatform",
    "OraclePlatform",
    "WaitComputePlatform",
]
