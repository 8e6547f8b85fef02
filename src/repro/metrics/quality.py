"""Image-quality metrics: PSNR (the paper's metric) and helpers."""

from __future__ import annotations

import numpy as np

__all__ = ["mse", "psnr", "mean_psnr"]


def mse(image_a: np.ndarray, image_b: np.ndarray) -> float:
    """Mean squared error between two images."""
    a = np.asarray(image_a, dtype=float)
    b = np.asarray(image_b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(((a - b) ** 2).mean())


def psnr(image_a: np.ndarray, image_b: np.ndarray) -> float:
    """Peak signal-to-noise ratio in dB for images in [0, 1] (returns
    +inf for identical images)."""
    error = mse(image_a, image_b)
    if error == 0.0:
        return float("inf")
    return float(10.0 * np.log10(1.0 / error))


def mean_psnr(frames_a: list, frames_b: list) -> float:
    """PSNR of the pooled MSE over a sequence (robust to infinities)."""
    if len(frames_a) != len(frames_b):
        raise ValueError(
            f"sequence length mismatch: {len(frames_a)} vs {len(frames_b)}")
    errors = [mse(a, b) for a, b in zip(frames_a, frames_b)]
    pooled = float(np.mean(errors)) if errors else 0.0
    if pooled == 0.0:
        return float("inf")
    return float(10.0 * np.log10(1.0 / pooled))
