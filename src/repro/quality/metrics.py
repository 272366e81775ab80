"""Quality metrics used to grade approximate outputs.

NVP evaluations grade approximate results against a precise reference
with mean squared error (MSE) and peak signal-to-noise ratio (PSNR);
20–40 dB PSNR is conventionally "good".
"""

from __future__ import annotations

import math

import numpy as np


def mse(reference, result) -> float:
    """Mean squared error between a reference and a result."""
    ref = np.asarray(reference, dtype=float)
    res = np.asarray(result, dtype=float)
    if ref.shape != res.shape:
        raise ValueError(f"shape mismatch: {ref.shape} vs {res.shape}")
    if ref.size == 0:
        raise ValueError("cannot score empty arrays")
    return float(np.mean((ref - res) ** 2))


def psnr(reference, result, max_value: float = 255.0) -> float:
    """Peak signal-to-noise ratio in dB (``inf`` for identical arrays).

    Args:
        max_value: the peak representable signal value (255 for 8-bit
            imagery).
    """
    if max_value <= 0:
        raise ValueError("max_value must be positive")
    error = mse(reference, result)
    if error == 0.0:
        return math.inf
    return 10.0 * math.log10(max_value * max_value / error)
