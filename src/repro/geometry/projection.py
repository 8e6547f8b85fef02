"""Perspective projection with z-buffered splatting (step 3 of SPARW).

Implements Eq. 3 of the paper: projecting a point cloud (already expressed in
the target camera's coordinate system) onto the target image plane.  Multiple
points can land on the same pixel; a z-buffer keeps the nearest, exactly as a
standard rasterisation pipeline would.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SplatResult", "splat_points", "scatter_resolve"]


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

    z = points[:, 2]
    ok = np.isfinite(z) & (z > 1e-9)
    if valid is not None:
        ok = ok & np.asarray(valid, dtype=bool)

    u = np.full(points.shape[0], -1.0)
    v = np.full(points.shape[0], -1.0)
    safe_z = np.where(ok, z, 1.0)
    u[ok] = intrinsics.fx * points[ok, 0] / safe_z[ok] + intrinsics.cx
    v[ok] = intrinsics.fy * points[ok, 1] / safe_z[ok] + intrinsics.cy

    px = np.floor(u).astype(np.int64)
    py = np.floor(v).astype(np.int64)
    ok &= (px >= 0) & (px < width) & (py >= 0) & (py < height)

    image = np.zeros((height, width, 3))
    depth = np.full((height, width), np.inf)
    source_index = np.full((height, width), -1, dtype=np.int64)

    idx = np.nonzero(ok)[0]
    if idx.size:
        flat = py[idx] * width + px[idx]
        scatter_resolve(flat, z[idx], idx, colors,
                        image.reshape(-1, 3), depth.reshape(-1),
                        source_index.reshape(-1))

    covered = np.isfinite(depth)
    return SplatResult(image=image, depth=depth, covered=covered,
                       source_index=source_index)


def scatter_resolve(flat_ids: np.ndarray, z: np.ndarray, src: np.ndarray,
                    colors: np.ndarray, image: np.ndarray,
                    depth: np.ndarray, source_index: np.ndarray) -> None:
    """Z-buffer resolve: scatter each point's color/depth, nearest wins.

    ``flat_ids`` (M,) are flat pixel ids, ``z`` (M,) their depths, and
    ``src`` (M,) their indices into the full point set; ``image`` (P, 3),
    ``depth`` (P,), and ``source_index`` (P,) are flat per-pixel output
    views mutated in place.  Sorting by depth descending with a stable
    sort means the final (nearest) write survives, and among equal
    depths the later-arriving point wins.
    """
    order = np.argsort(-z, kind="stable")
    flat_sorted = flat_ids[order]
    src_sorted = src[order]
    depth[flat_sorted] = z[order]
    image[flat_sorted] = colors[src_sorted]
    source_index[flat_sorted] = src_sorted
