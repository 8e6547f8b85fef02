"""Ray-box intersection.

NeRF rendering operates on flat ``(N, 3)`` origin/direction arrays; this
module provides the axis-aligned bounding-box (AABB) clipping used to
restrict ray sampling to the scene volume.
"""

from __future__ import annotations

import numpy as np

__all__ = ["intersect_aabb"]


def intersect_aabb(
    origins: np.ndarray,
    directions: np.ndarray,
    box_min: np.ndarray,
    box_max: np.ndarray,
    near: float = 0.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Slab-method ray/AABB intersection.

    Returns ``(t_near, t_far, hit)`` per ray; ``hit`` is False when the ray
    misses the box beyond ``near``.  Zero direction components are
    handled by the usual +/-inf slab arithmetic.
    """
    origins = np.asarray(origins, dtype=float)
    directions = np.asarray(directions, dtype=float)
    box_min = np.asarray(box_min, dtype=float)
    box_max = np.asarray(box_max, dtype=float)

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        inv = 1.0 / directions
        t0 = (box_min - origins) * inv
        t1 = (box_max - origins) * inv
    t_small = np.minimum(t0, t1)
    t_big = np.maximum(t0, t1)
    # A zero direction component outside the slab yields NaN; treat entry as
    # -inf/exit as +inf only when the origin is inside that slab.
    inside = (origins >= box_min) & (origins <= box_max)
    t_small = np.where(np.isnan(t_small), np.where(inside, -np.inf, np.inf), t_small)
    t_big = np.where(np.isnan(t_big), np.where(inside, np.inf, -np.inf), t_big)

    t_near = np.maximum(t_small.max(axis=-1), near)
    t_far = t_big.min(axis=-1)
    hit = t_near < t_far
    return t_near, t_far, hit
