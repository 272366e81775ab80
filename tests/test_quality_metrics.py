"""Tests for the output-quality metrics."""

import math

import numpy as np
import pytest

from repro.quality.metrics import mse, psnr


class TestMSE:
    def test_identical_is_zero(self):
        assert mse([1, 2, 3], [1, 2, 3]) == 0.0

    def test_known_value(self):
        assert mse([0, 0], [3, 4]) == pytest.approx(12.5)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mse([1, 2], [1, 2, 3])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mse([], [])


class TestPSNR:
    def test_identical_is_infinite(self):
        assert psnr([5, 5], [5, 5]) == math.inf

    def test_known_value(self):
        # MSE = 1 against a 255 peak -> 48.13 dB.
        reference = np.zeros(100)
        noisy = np.zeros(100)
        noisy[:] = 1.0
        assert psnr(reference, noisy) == pytest.approx(48.13, abs=0.01)

    def test_more_noise_less_psnr(self):
        reference = np.zeros(64)
        assert psnr(reference, reference + 2) < psnr(reference, reference + 1)

    def test_max_value_parameter(self):
        reference = np.zeros(16)
        result = reference + 1
        assert psnr(reference, result, max_value=1.0) == pytest.approx(0.0, abs=1e-9)
        with pytest.raises(ValueError):
            psnr(reference, result, max_value=0.0)

    def test_conventional_quality_bands(self):
        """8-bit images within +/-4 grey levels of noise score above the
        conventional 'good' 20 dB line."""
        rng = np.random.default_rng(0)
        reference = rng.integers(0, 256, 1024).astype(float)
        noisy = reference + rng.normal(0, 4, 1024)
        assert psnr(reference, noisy) > 30
