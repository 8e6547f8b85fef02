"""Image-quality metrics: PSNR (the paper's metric) and helpers."""

from __future__ import annotations

import numpy as np

__all__ = ["mse", "psnr", "mean_psnr"]


def mse(image_a: np.ndarray, image_b: np.ndarray,
        mask: np.ndarray | None = None) -> float:
    """Mean squared error between two images, optionally masked."""
    a = np.asarray(image_a, dtype=float)
    b = np.asarray(image_b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    err = (a - b) ** 2
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != a.shape[:2]:
            raise ValueError("mask must match image height x width")
        if not mask.any():
            return 0.0
        err = err[mask]
    return float(err.mean())


def psnr(image_a: np.ndarray, image_b: np.ndarray, peak: float = 1.0,
         mask: np.ndarray | None = None) -> float:
    """Peak signal-to-noise ratio in dB (returns +inf for identical images)."""
    error = mse(image_a, image_b, mask=mask)
    if error == 0.0:
        return float("inf")
    return float(10.0 * np.log10(peak**2 / error))


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
