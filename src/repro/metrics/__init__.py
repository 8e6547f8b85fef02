"""Quality and summary metrics."""

from .quality import mean_psnr, mse, psnr
from .stats import geometric_mean, mean_or_zero, percentile_or_zero, speedup

__all__ = [
    "mean_psnr",
    "mse",
    "psnr",
    "geometric_mean",
    "mean_or_zero",
    "percentile_or_zero",
    "speedup",
]
