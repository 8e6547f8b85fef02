"""Summary statistics used by the benchmark harness."""

from __future__ import annotations

import numpy as np

__all__ = ["geometric_mean", "speedup", "percentile_or_zero", "mean_or_zero"]


def percentile_or_zero(values, q: float) -> float:
    """Empty-safe percentile: latency tails of a run that served nothing.

    Shared by the serving and cluster reports so their p50/p95/p99
    columns can never drift apart in interpolation or empty handling.
    """
    values = list(values)
    return float(np.percentile(values, q)) if values else 0.0


def mean_or_zero(values) -> float:
    """Empty-safe arithmetic mean (reporting counterpart of the above)."""
    values = list(values)
    return float(np.mean(values)) if values else 0.0


def geometric_mean(values) -> float:
    """Geometric mean (the standard for speed-up aggregation)."""
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise ValueError("geometric_mean of empty sequence")
    if (arr <= 0.0).any():
        raise ValueError("geometric_mean requires positive values")
    return float(np.exp(np.log(arr).mean()))


def speedup(baseline: float, candidate: float) -> float:
    """``baseline / candidate`` — >1 means the candidate is faster/cheaper."""
    if candidate <= 0.0:
        raise ValueError("candidate cost must be positive")
    return baseline / candidate
