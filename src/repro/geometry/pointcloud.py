"""Depth-map <-> point-cloud conversion (step 1 of SPARW).

Implements Eq. 1 of the paper: lifting every pixel of a reference frame into
a 3D point cloud in the reference camera's coordinate system, using the
per-pixel depth and the camera intrinsics.
"""

from __future__ import annotations

import numpy as np

__all__ = ["depth_to_points", "transform_points", "clear_lift_cache"]


# Per-(intrinsics, shape) normalised pixel lattices for depth lifting.
# Keyed on the resolution too so mismatched depth maps never reuse a
# lattice.  This is the warp path's per-frame setup cost (a measured hot
# path; see repro.perf).  Bounded FIFO so a long-lived server cycling
# many resolutions cannot grow it without limit.
_LIFT_CACHE: dict = {}
_LIFT_CACHE_MAX = 32


def _lift_grids(intrinsics, height: int, width: int
                ) -> tuple[np.ndarray, np.ndarray]:
    """Cached ((H, W), (H, W)) lattices of (u - cx) / fx and (v - cy) / fy."""
    key = (intrinsics, height, width)
    grids = _LIFT_CACHE.get(key)
    if grids is None:
        us = np.arange(width, dtype=float) + 0.5
        vs = np.arange(height, dtype=float) + 0.5
        u, v = np.meshgrid(us, vs)
        xg = (u - intrinsics.cx) / intrinsics.fx
        yg = (v - intrinsics.cy) / intrinsics.fy
        xg.setflags(write=False)
        yg.setflags(write=False)
        while len(_LIFT_CACHE) >= _LIFT_CACHE_MAX:
            _LIFT_CACHE.pop(next(iter(_LIFT_CACHE)))
        grids = _LIFT_CACHE[key] = (xg, yg)
    return grids


def clear_lift_cache() -> None:
    """Release the memoised lift lattices (engine run-exit housekeeping)."""
    _LIFT_CACHE.clear()


def depth_to_points(depth: np.ndarray, intrinsics) -> np.ndarray:
    """Back-project a depth map into camera-space points (Eq. 1).

    ``depth`` is (H, W) metric z-depth.  The output is (H*W, 3), row-major.
    Pixels with non-finite depth produce non-finite points; callers must
    mask them.  The normalised pixel lattice
    is memoised per intrinsics (bit-identical to recomputing it: the
    lattice is a pure function of intrinsics and resolution).
    """
    depth = np.asarray(depth, dtype=float)
    height, width = depth.shape
    xg, yg = _lift_grids(intrinsics, height, width)
    points = np.stack([xg * depth, yg * depth, depth], axis=-1)
    return points.reshape(-1, 3)


def transform_points(points: np.ndarray, transform: np.ndarray) -> np.ndarray:
    """Apply a 4x4 rigid transform to (N, 3) points."""
    points = np.asarray(points, dtype=float)
    out = points @ transform[:3, :3].T
    out += transform[:3, 3]  # in place: no second (N, 3) temporary
    return out

