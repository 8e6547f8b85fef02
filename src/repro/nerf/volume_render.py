"""Volume rendering: alpha compositing of per-sample density and radiance.

Classic emission-absorption integration (Kajiya/Levoy, as used by NeRF):
``alpha_i = 1 - exp(-sigma_i * delta_i)``, transmittance is the running
product of ``1 - alpha``, and per-ray color/depth are weight-sums.  Operates
on the flattened :class:`~repro.nerf.sampling.RaySamples` layout via
segmented scans, so rays with different live-sample counts batch together.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["CompositeResult", "composite"]


@dataclass
class CompositeResult:
    """Per-ray outputs of volume rendering.

    ``depth`` is the expected termination distance along the ray (same units
    as the sample ``t_values``); rays with opacity below the caller's
    threshold should be treated as void/background.
    """

    rgb: np.ndarray  # (R, 3)
    depth: np.ndarray  # (R,)
    opacity: np.ndarray  # (R,)


def composite(
    sigmas: np.ndarray,
    rgbs: np.ndarray,
    t_values: np.ndarray,
    deltas: np.ndarray,
    ray_index: np.ndarray,
    num_rays: int,
) -> CompositeResult:
    """Composite flattened samples into per-ray color, depth, and opacity.

    Samples must be sorted by (ray, t) — the sampler emits them that way.
    """
    sigmas = np.asarray(sigmas, dtype=float)
    alphas = 1.0 - np.exp(-np.maximum(sigmas, 0.0) * np.asarray(deltas, dtype=float))

    # Segmented exclusive product of (1 - alpha) per ray, computed via
    # cumulative log-sums reset at each ray boundary.
    log_trans = np.log(np.clip(1.0 - alphas, 1e-12, 1.0))
    cums = np.cumsum(log_trans)
    ray_index = np.asarray(ray_index, dtype=np.int64)

    if len(sigmas) == 0:
        return CompositeResult(rgb=np.zeros((num_rays, 3)),
                               depth=np.full(num_rays, np.inf),
                               opacity=np.zeros(num_rays))

    starts = np.zeros(len(sigmas), dtype=bool)
    starts[0] = True
    starts[1:] = ray_index[1:] != ray_index[:-1]
    # Offset to subtract: the cumulative sum just before each segment's start,
    # forward-filled across the segment.
    start_positions = np.maximum.accumulate(
        np.where(starts, np.arange(len(sigmas)), 0))
    seg_offsets = (cums - log_trans)[start_positions]
    exclusive = cums - log_trans - seg_offsets
    transmittance = np.exp(exclusive)
    weights = transmittance * alphas

    # All three channels in one segmented sum: flatten (sample, channel) to
    # interleaved bins so a single bincount covers the RGB block.  Per-bin
    # accumulation order stays sample-ascending, so results are
    # bit-identical to the per-channel form (see test_volume_render).
    flat_bins = (ray_index[:, None] * 3 + np.arange(3)).ravel()
    rgb = np.bincount(flat_bins,
                      weights=(weights[:, None] * np.asarray(rgbs)).ravel(),
                      minlength=num_rays * 3).reshape(num_rays, 3)
    depth_sum = np.bincount(ray_index, weights=weights * t_values,
                            minlength=num_rays)
    opacity = np.bincount(ray_index, weights=weights, minlength=num_rays)
    opacity = np.clip(opacity, 0.0, 1.0)

    safe = np.where(opacity > 1e-8, opacity, 1.0)
    depth = np.where(opacity > 1e-8, depth_sum / safe, np.inf)
    return CompositeResult(rgb=np.clip(rgb, 0.0, 1.0), depth=depth,
                           opacity=opacity)
