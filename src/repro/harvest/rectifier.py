"""AC-DC rectifier / front-end conversion model.

Rotational and RF harvesters produce AC that must be rectified before
it can charge the storage capacitor.  Rectifier efficiency collapses
at very low input power (diode drops and controller overhead dominate)
and saturates at a technology-dependent maximum — which is exactly why
"wait-and-compute" systems that trickle-charge a big capacitor lose so
much energy at µW inputs.

The model is a saturating curve ``eta(p) = eta_max * p / (p + p_knee)``
with an optional hard cut-in power below which nothing is converted
(the minimum charging current of real charger ICs).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Rectifier:
    """Saturating-efficiency AC-DC front end.

    Attributes:
        eta_max: asymptotic conversion efficiency (0, 1].
        knee_power_w: input power at which efficiency reaches half of
            ``eta_max``.
        cutin_power_w: below this input power the output is zero.
    """

    eta_max: float = 0.85
    knee_power_w: float = 8e-6
    cutin_power_w: float = 1e-6

    def __post_init__(self) -> None:
        if not 0 < self.eta_max <= 1:
            raise ValueError("eta_max must be in (0, 1]")
        if self.knee_power_w < 0 or self.cutin_power_w < 0:
            raise ValueError("powers cannot be negative")

    def efficiency(self, input_power_w: float) -> float:
        """Conversion efficiency at an input power level."""
        if input_power_w < 0:
            raise ValueError("input power cannot be negative")
        if input_power_w < self.cutin_power_w or input_power_w == 0.0:
            return 0.0
        return self.eta_max * input_power_w / (input_power_w + self.knee_power_w)

    def output_power(self, input_power_w: float) -> float:
        """DC output power for an AC input power."""
        return input_power_w * self.efficiency(input_power_w)

    def output_power_array(self, samples_w: np.ndarray) -> np.ndarray:
        """DC output power for a whole array of input powers.

        Element-for-element equal to calling :meth:`output_power` on
        each sample (same IEEE-754 operations in the same order): the
        scalar form states the curve, and this is the form every run
        rectifies its trace with.
        """
        samples = np.asarray(samples_w, dtype=np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            eta = np.where(
                (samples < self.cutin_power_w) | (samples == 0.0),
                0.0,
                self.eta_max * samples / (samples + self.knee_power_w),
            )
        return samples * eta


#: An ideal front end for experiments that want to isolate other effects.
IDEAL_RECTIFIER = Rectifier(eta_max=1.0, knee_power_w=0.0, cutin_power_w=0.0)
