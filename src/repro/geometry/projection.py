"""Perspective projection with z-buffered splatting (step 3 of SPARW).

Implements Eq. 3 of the paper: projecting a point cloud (already expressed in
the target camera's coordinate system) onto the target image plane.  Multiple
points can land on the same pixel; a z-buffer keeps the nearest, exactly as a
standard rasterisation pipeline would.

:func:`project_to_pixels` is the one projection routine (the SPARW warp uses
it for surface and background points alike) and :func:`nearest_source` the
z-buffer.
"""

from __future__ import annotations

import numpy as np

__all__ = ["project_to_pixels", "nearest_source"]


def project_to_pixels(points_cam: np.ndarray, intrinsics) -> np.ndarray:
    """Flat row-major pixel id each camera-space point lands on, or -1.

    A point lands on pixel ``(floor(v), floor(u))`` with
    ``u = fx * x / z + cx`` and ``v = fy * y / z + cy``.  It lands nowhere
    (-1) when its depth is not finite or not in front of the camera
    (``z <= 1e-9``) or when ``(u, v)`` falls outside the image.
    """
    points = np.asarray(points_cam, dtype=float)
    height, width = intrinsics.height, intrinsics.width
    z = points[:, 2]
    ok = np.isfinite(z) & (z > 1e-9)
    safe_z = np.where(ok, z, 1.0)
    px = np.floor(intrinsics.fx * points[:, 0] / safe_z + intrinsics.cx)
    py = np.floor(intrinsics.fy * points[:, 1] / safe_z + intrinsics.cy)
    ok &= (px >= 0) & (px < width) & (py >= 0) & (py < height)
    return np.where(ok, py * width + px, -1).astype(np.int64)


def nearest_source(pixel_ids: np.ndarray, z: np.ndarray, src: np.ndarray,
                   num_pixels: int) -> np.ndarray:
    """Z-buffer resolve: the index of the nearest point on every pixel.

    ``pixel_ids`` (M,) are the points' flat pixel ids, ``z`` (M,) their
    depths and ``src`` (M,) their indices into the full point set.
    Returns (num_pixels,) int64: the winning ``src`` per pixel, -1 where no
    point landed.  Sorting by depth descending with a stable sort means the
    final (nearest) write survives, and among equal depths the
    later-arriving point wins.
    """
    order = np.argsort(-z, kind="stable")
    source = np.full(num_pixels, -1, dtype=np.int64)
    source[pixel_ids[order]] = src[order]
    return source

