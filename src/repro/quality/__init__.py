"""Output-quality metrics (MSE / PSNR) for kernel outputs."""

from repro.quality.metrics import mse, psnr

__all__ = ["mse", "psnr"]
