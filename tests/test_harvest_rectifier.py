"""Unit tests for the rectifier / front-end conversion model."""

import numpy as np
import pytest

from repro.harvest.rectifier import IDEAL_RECTIFIER, Rectifier


class TestEfficiencyCurve:
    def test_zero_below_cutin(self):
        rect = Rectifier(cutin_power_w=2e-6)
        assert rect.efficiency(1e-6) == 0.0
        assert rect.output_power(1e-6) == 0.0

    def test_half_max_at_knee(self):
        rect = Rectifier(eta_max=0.8, knee_power_w=10e-6, cutin_power_w=0.0)
        assert rect.efficiency(10e-6) == pytest.approx(0.4)

    def test_saturates_at_eta_max(self):
        rect = Rectifier(eta_max=0.85, knee_power_w=8e-6)
        assert rect.efficiency(10.0) == pytest.approx(0.85, rel=1e-3)

    def test_monotone_in_power(self):
        rect = Rectifier()
        powers = np.logspace(-6, -2, 40)
        efficiencies = [rect.efficiency(p) for p in powers]
        assert all(a <= b + 1e-12 for a, b in zip(efficiencies, efficiencies[1:]))

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            Rectifier().efficiency(-1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            Rectifier(eta_max=0.0)
        with pytest.raises(ValueError):
            Rectifier(eta_max=1.5)
        with pytest.raises(ValueError):
            Rectifier(knee_power_w=-1.0)


class TestConvert:
    def test_low_power_penalised_harder(self):
        """Conversion losses hit weak income hardest — the wait-compute
        penalty the tutorial highlights."""
        rect = Rectifier()
        weak = rect.efficiency(5e-6)
        strong = rect.efficiency(500e-6)
        assert weak < 0.5 * strong

    def test_ideal_rectifier_is_lossless(self):
        assert IDEAL_RECTIFIER.efficiency(1e-9) == 1.0
        assert IDEAL_RECTIFIER.output_power(5e-6) == pytest.approx(5e-6)
        # Zero input has zero output regardless of the curve.
        assert IDEAL_RECTIFIER.output_power(0.0) == 0.0
