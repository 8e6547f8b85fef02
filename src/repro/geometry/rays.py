"""Ray bundles and ray-box intersection.

NeRF rendering operates on flat bundles of rays; this module provides the
container plus the axis-aligned bounding-box (AABB) clipping used to restrict
ray sampling to the scene volume.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["RayBundle", "intersect_aabb"]


@dataclass
class RayBundle:
    """A flat bundle of rays (origins/directions shaped (N, 3)).

    ``pixel_ids`` optionally records which image pixel each ray came from so
    sparse renders can scatter results back into a frame.
    """

    origins: np.ndarray
    directions: np.ndarray
    pixel_ids: np.ndarray | None = None

    def __post_init__(self):
        self.origins = np.atleast_2d(np.asarray(self.origins, dtype=float))
        self.directions = np.atleast_2d(np.asarray(self.directions, dtype=float))
        if self.origins.shape != self.directions.shape:
            raise ValueError("origins and directions must have the same shape")
        if self.origins.shape[-1] != 3:
            raise ValueError("rays must be 3-dimensional")
        if self.pixel_ids is not None:
            self.pixel_ids = np.asarray(self.pixel_ids, dtype=np.int64)
            if self.pixel_ids.shape[0] != self.origins.shape[0]:
                raise ValueError("pixel_ids length must match ray count")

    def __len__(self) -> int:
        return self.origins.shape[0]

    def select(self, mask_or_index: np.ndarray) -> "RayBundle":
        """Sub-bundle selected by a boolean mask or index array."""
        ids = None if self.pixel_ids is None else self.pixel_ids[mask_or_index]
        return RayBundle(
            origins=self.origins[mask_or_index],
            directions=self.directions[mask_or_index],
            pixel_ids=ids,
        )


def intersect_aabb(
    origins: np.ndarray,
    directions: np.ndarray,
    box_min: np.ndarray,
    box_max: np.ndarray,
    near: float = 0.0,
    far: float = np.inf,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Slab-method ray/AABB intersection.

    Returns ``(t_near, t_far, hit)`` per ray; ``hit`` is False when the ray
    misses the box within ``[near, far]``.  Zero direction components are
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
    t_far = np.minimum(t_big.min(axis=-1), far)
    hit = t_near < t_far
    return t_near, t_far, hit
