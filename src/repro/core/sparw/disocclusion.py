"""Disocclusion classification and warp statistics (Sec. III-B step 4 setup).

After naive warping, every target pixel falls into one of three classes:

* **warped** — covered by a surface point from the reference frame; its color
  is reused directly.
* **void** — the reference frame saw background in that direction (infinite
  depth); the paper's depth test skips these in sparse NeRF rendering.
* **disoccluded** — a hole: geometry newly visible in the target view.  Only
  these pixels go through the (sparse) NeRF model.

The same masks yield the overlap statistics of Fig. 7.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .warp import WarpResult

__all__ = ["PixelClassification", "classify_pixels", "classify_masks",
           "overlap_fraction"]


@dataclass
class PixelClassification:
    """Pixel partition of a warped target frame."""

    warped: np.ndarray  # (H, W) bool — reuse the warped color
    disoccluded: np.ndarray  # (H, W) bool — sparse NeRF re-render
    void: np.ndarray  # (H, W) bool — background, skipped

    @property
    def num_pixels(self) -> int:
        return self.warped.size

    @property
    def warped_fraction(self) -> float:
        return float(self.warped.mean())

    @property
    def disoccluded_fraction(self) -> float:
        return float(self.disoccluded.mean())

    @property
    def void_fraction(self) -> float:
        return float(self.void.mean())

    def rerender_pixel_ids(self) -> np.ndarray:
        """Flat row-major pixel ids to hand to the sparse NeRF renderer."""
        return np.nonzero(self.disoccluded.reshape(-1))[0]


def classify_pixels(warp: WarpResult,
                    angle_threshold_deg: float | None = None
                    ) -> PixelClassification:
    """Partition pixels of a naive warp, optionally applying the phi test.

    With ``angle_threshold_deg`` set (Sec. III-C / Fig. 26), covered pixels
    whose warp angle exceeds the threshold are demoted to disoccluded — the
    radiance approximation is not trusted there, so the NeRF model re-renders
    them.
    """
    warped, disoccluded = classify_masks(warp.covered, warp.hole_mask,
                                         warp.warp_angle_deg,
                                         angle_threshold_deg)
    return PixelClassification(warped=warped, disoccluded=disoccluded,
                               void=warp.void.copy())


def classify_masks(covered: np.ndarray, hole: np.ndarray,
                   angle: np.ndarray, threshold: float | None
                   ) -> tuple[np.ndarray, np.ndarray]:
    """The (warped, disoccluded) mask partition of a naive warp.

    ``threshold=None`` skips the phi test: the masks are plain copies of
    coverage and hole state.  Otherwise covered pixels whose warp angle
    exceeds the threshold move from warped to disoccluded.  Always
    returns fresh arrays (callers mutate them downstream).
    """
    warped = covered.copy()
    disoccluded = hole.copy()
    if threshold is not None:
        too_wide = warped & (angle > threshold)
        warped &= ~too_wide
        disoccluded |= too_wide
    return warped, disoccluded


def overlap_fraction(warp: WarpResult) -> float:
    """Fraction of target pixels whose scene content the reference captured.

    This matches the paper's overlap metric (Fig. 7): surface pixels covered
    by a warped point *and* background pixels the reference also saw as
    background both count as overlapped; the complement is exactly the
    disoccluded fraction that requires re-rendering.
    """
    return float(1.0 - warp.hole_mask.mean())
