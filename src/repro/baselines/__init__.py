"""Comparison baselines: DS-2 downsampling.

The TEMP-N temporal-warping baseline is
``SparwRenderer(..., policy="on_trajectory")``.
"""

from .ds2 import DS2Renderer, bilinear_upsample

__all__ = ["DS2Renderer", "bilinear_upsample"]
