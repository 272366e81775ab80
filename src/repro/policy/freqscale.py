"""Clock-frequency scaling under harvested power.

Running faster raises instantaneous power draw (more backup-threshold
crossings under weak income) but amortises static leakage over more
instructions; running slower survives weak income but wastes energy on
leakage.  The best clock is therefore income-dependent — the insight
behind Spendthrift-class frequency/resource scaling.  This module
provides the sweep harness and a trained income→frequency policy.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.system.result import SimulationResult


def frequency_sweep(
    frequencies_hz: Sequence[float],
    evaluate: Callable[[float], SimulationResult],
) -> List[Tuple[float, SimulationResult]]:
    """Evaluate a platform factory across clock frequencies.

    Args:
        frequencies_hz: clocks to test.
        evaluate: ``evaluate(frequency) -> SimulationResult`` — the
            caller builds the workload/platform at that clock and runs
            the simulation.

    Returns:
        ``[(frequency, result), ...]`` in the given order.
    """
    if len(frequencies_hz) == 0:
        raise ValueError("need at least one frequency")
    return [(float(f), evaluate(float(f))) for f in frequencies_hz]


def best_frequency(
    sweep: Sequence[Tuple[float, SimulationResult]],
) -> Tuple[float, SimulationResult]:
    """The sweep entry with the highest forward progress."""
    if len(sweep) == 0:
        raise ValueError("empty sweep")
    return max(sweep, key=lambda entry: entry[1].forward_progress)


class PowerAwareFrequencyPolicy:
    """Maps sampled mean income power to a recommended clock.

    Trained from per-income sweeps: for each training income level the
    winning frequency is recorded; prediction picks the entry whose
    income is nearest (log-scale) to the sample.
    """

    def __init__(self, bus=None) -> None:
        self.bus = bus
        self._incomes_w: List[float] = []
        self._frequencies_hz: List[float] = []

    @property
    def trained(self) -> bool:
        """True once at least one training point exists."""
        return len(self._incomes_w) > 0

    def add_training_point(self, income_w: float, frequency_hz: float) -> None:
        """Record that ``frequency_hz`` won at mean income ``income_w``."""
        if income_w <= 0 or frequency_hz <= 0:
            raise ValueError("income and frequency must be positive")
        self._incomes_w.append(income_w)
        self._frequencies_hz.append(frequency_hz)

    def recommend(self, income_w: float) -> float:
        """Recommended clock for a sampled mean income power.

        Raises:
            RuntimeError: if the policy has no training points.
        """
        if not self.trained:
            raise RuntimeError("policy is not trained")
        if income_w <= 0:
            raise ValueError("income must be positive")
        log_incomes = np.log(np.asarray(self._incomes_w))
        index = int(np.argmin(np.abs(log_incomes - np.log(income_w))))
        chosen = self._frequencies_hz[index]
        if self.bus is not None:
            self.bus.emit(
                "policy.decision",
                policy="freq-scale",
                income_w=income_w,
                frequency_hz=chosen,
            )
        return chosen

    def table(self) -> Dict[float, float]:
        """The trained income → frequency mapping."""
        return dict(zip(self._incomes_w, self._frequencies_hz))
