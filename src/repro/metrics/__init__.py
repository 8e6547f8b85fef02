"""Quality and summary metrics."""

from .quality import mean_psnr, mse, psnr
from .stats import mean_or_zero, percentile_or_zero

__all__ = [
    "mean_psnr",
    "mse",
    "psnr",
    "mean_or_zero",
    "percentile_or_zero",
]
