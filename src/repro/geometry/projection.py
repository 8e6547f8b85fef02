"""Perspective projection with z-buffered splatting (step 3 of SPARW).

Implements Eq. 3 of the paper: projecting a point cloud (already expressed in
the target camera's coordinate system) onto the target image plane.  Multiple
points can land on the same pixel; a z-buffer keeps the nearest, exactly as a
standard rasterisation pipeline would.

:func:`project_to_pixels` is the one projection routine (the SPARW warp uses
it for surface and background points alike), :func:`nearest_source` the
z-buffer, and :func:`splat_points` the two together with colours attached.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SplatResult", "splat_points", "project_to_pixels",
           "nearest_source"]


@dataclass
class SplatResult:
    """Result of z-buffer splatting a point cloud into a target view.

    ``image``/``depth`` hold colors and z-depths for covered pixels; ``covered``
    marks pixels that received at least one point.  Uncovered pixels keep a
    depth of ``+inf`` and a color of zero — SPARW later classifies them as
    disocclusion or void.
    """

    image: np.ndarray  # (H, W, 3)
    depth: np.ndarray  # (H, W)
    covered: np.ndarray  # (H, W) bool
    source_index: np.ndarray  # (H, W) int64, -1 where uncovered

    @property
    def coverage(self) -> float:
        """Fraction of pixels covered by at least one splatted point."""
        return float(self.covered.mean())


def project_to_pixels(points_cam: np.ndarray, intrinsics,
                      valid: np.ndarray | None = None) -> np.ndarray:
    """Flat row-major pixel id each camera-space point lands on, or -1.

    A point lands on pixel ``(floor(v), floor(u))`` with
    ``u = fx * x / z + cx`` and ``v = fy * y / z + cy``.  It lands nowhere
    (-1) when its depth is not finite or not in front of the camera
    (``z <= 1e-9``), when ``valid`` (optional, (N,) bool) excludes it, or
    when ``(u, v)`` falls outside the image.
    """
    points = np.asarray(points_cam, dtype=float)
    height, width = intrinsics.height, intrinsics.width
    z = points[:, 2]
    ok = np.isfinite(z) & (z > 1e-9)
    if valid is not None:
        ok &= np.asarray(valid, dtype=bool)
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


def splat_points(
    points_cam: np.ndarray,
    colors: np.ndarray,
    intrinsics,
    valid: np.ndarray | None = None,
    depth_merge_eps: float = 0.0,
) -> SplatResult:
    """Project camera-space points and resolve occlusion with a z-buffer.

    Parameters
    ----------
    points_cam:
        (N, 3) points in the *target* camera frame (z = depth).
    colors:
        (N, 3) per-point colors carried from the reference frame.
    intrinsics:
        Target :class:`~repro.geometry.camera.Intrinsics`.
    valid:
        Optional (N,) mask of points eligible for splatting.
    depth_merge_eps:
        Reserved for soft-merging nearly equal depths; the hard z-buffer
        (nearest wins) is what the paper's rasterisation pipeline does.
    """
    points = np.asarray(points_cam, dtype=float)
    colors = np.asarray(colors, dtype=float)
    height, width = intrinsics.height, intrinsics.width
    num_pixels = height * width

    pixel = project_to_pixels(points, intrinsics, valid)
    landed = np.flatnonzero(pixel >= 0)
    source = nearest_source(pixel[landed], points[landed, 2], landed,
                            num_pixels)
    hit = np.flatnonzero(source >= 0)
    winners = source[hit]
    image = np.zeros((num_pixels, 3))
    image[hit] = colors[winners]
    depth = np.full(num_pixels, np.inf)
    depth[hit] = points[winners, 2]
    return SplatResult(image=image.reshape(height, width, 3),
                       depth=depth.reshape(height, width),
                       covered=(source >= 0).reshape(height, width),
                       source_index=source.reshape(height, width))
