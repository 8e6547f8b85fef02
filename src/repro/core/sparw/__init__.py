"""SPARW: sparse radiance warping (the paper's Sec. III)."""

from .disocclusion import PixelClassification, classify_pixels, overlap_fraction
from .pipeline import (
    RayRequest,
    SparwRenderer,
    SparwSequenceResult,
    TargetFrameRecord,
)
from .reference import ExtrapolatedReferencePolicy, OnTrajectoryReferencePolicy
from .warp import VOID_FAR_DEPTH, WarpResult, warp_frame

__all__ = [
    "PixelClassification",
    "classify_pixels",
    "overlap_fraction",
    "RayRequest",
    "SparwRenderer",
    "SparwSequenceResult",
    "TargetFrameRecord",
    "ExtrapolatedReferencePolicy",
    "OnTrajectoryReferencePolicy",
    "VOID_FAR_DEPTH",
    "WarpResult",
    "warp_frame",
]
