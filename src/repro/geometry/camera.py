"""Pinhole camera model.

A :class:`PinholeCamera` bundles intrinsics (focal length, principal point,
resolution) with an extrinsic camera-to-world pose.  It produces the per-pixel
ray bundles that drive both the ground-truth ray tracer and NeRF rendering,
and performs the point projections used by SPARW warping.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .transforms import invert_pose

__all__ = ["Intrinsics", "PinholeCamera", "clear_dir_grid_cache"]

# Per-intrinsics camera-space direction lattice for full-frame ray
# generation.  Intrinsics are frozen/hashable and a process normally uses
# a handful (one per quality tier per image size); the memo saves a
# meshgrid + stack per reference frame — a measured hot path (see
# repro.perf).  Poses never enter the cache: the lattice is a pure
# function of the intrinsics.  Bounded FIFO so a long-lived server
# cycling many resolutions cannot grow it without limit.
_DIR_GRID_CACHE: dict = {}
_DIR_GRID_CACHE_MAX = 32


def _camera_dir_grid(intrinsics: "Intrinsics") -> np.ndarray:
    """Cached (H, W, 3) camera-space (unnormalised) pixel-centre directions."""
    grid = _DIR_GRID_CACHE.get(intrinsics)
    if grid is None:
        us = np.arange(intrinsics.width, dtype=float) + 0.5
        vs = np.arange(intrinsics.height, dtype=float) + 0.5
        u, v = np.meshgrid(us, vs)
        x = (u - intrinsics.cx) / intrinsics.fx
        y = (v - intrinsics.cy) / intrinsics.fy
        grid = np.stack([x, y, np.ones_like(x)], axis=-1)
        grid.setflags(write=False)
        while len(_DIR_GRID_CACHE) >= _DIR_GRID_CACHE_MAX:
            _DIR_GRID_CACHE.pop(next(iter(_DIR_GRID_CACHE)))
        _DIR_GRID_CACHE[intrinsics] = grid
    return grid


def clear_dir_grid_cache() -> None:
    """Release the memoised direction lattices (engine run-exit housekeeping)."""
    _DIR_GRID_CACHE.clear()


def _unit(directions: np.ndarray) -> np.ndarray:
    """``directions`` divided by their norms along the last axis.

    The norm is written per column in NumPy's own last-axis order,
    ``(x*x + y*y) + z*z`` — bit-identical to ``np.linalg.norm(axis=-1)``
    without its strided length-3 reduction.
    """
    x, y, z = np.moveaxis(directions, -1, 0)
    return directions / np.sqrt((x * x + y * y) + z * z)[..., None]


@dataclass(frozen=True)
class Intrinsics:
    """Pinhole intrinsics: focal lengths, principal point, resolution."""

    width: int
    height: int
    fx: float
    fy: float
    cx: float
    cy: float

    @classmethod
    def from_fov(cls, width: int, height: int, fov_x_deg: float) -> "Intrinsics":
        """Build intrinsics from a horizontal field of view."""
        fx = width / (2.0 * np.tan(np.radians(fov_x_deg) / 2.0))
        return cls(width=width, height=height, fx=fx, fy=fx,
                   cx=width / 2.0, cy=height / 2.0)

    def scaled(self, factor: float) -> "Intrinsics":
        """Intrinsics for an image rescaled by ``factor`` (e.g. 0.5 for DS-2)."""
        return Intrinsics(
            width=max(1, int(round(self.width * factor))),
            height=max(1, int(round(self.height * factor))),
            fx=self.fx * factor,
            fy=self.fy * factor,
            cx=self.cx * factor,
            cy=self.cy * factor,
        )


@dataclass(frozen=True)
class PinholeCamera:
    """A pinhole camera with a camera-to-world pose (CV convention)."""

    intrinsics: Intrinsics
    c2w: np.ndarray = field(default_factory=lambda: np.eye(4))

    def __post_init__(self):
        pose = np.asarray(self.c2w, dtype=float)
        if pose.shape != (4, 4):
            raise ValueError(f"c2w must be 4x4, got {pose.shape}")
        object.__setattr__(self, "c2w", pose)

    # -- derived views ----------------------------------------------------

    @property
    def w2c(self) -> np.ndarray:
        """World-to-camera pose."""
        return invert_pose(self.c2w)

    @property
    def position(self) -> np.ndarray:
        """Camera centre in world coordinates."""
        return self.c2w[:3, 3].copy()

    @property
    def width(self) -> int:
        return self.intrinsics.width

    @property
    def height(self) -> int:
        return self.intrinsics.height

    def with_pose(self, c2w: np.ndarray) -> "PinholeCamera":
        """A copy of this camera at a new pose."""
        return replace(self, c2w=np.asarray(c2w, dtype=float))

    def scaled(self, factor: float) -> "PinholeCamera":
        """A copy with intrinsics rescaled by ``factor`` (same pose)."""
        return replace(self, intrinsics=self.intrinsics.scaled(factor))

    # -- rays --------------------------------------------------------------

    def _world_rays(self, dirs_cam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Rotate camera-space directions into world space and normalise."""
        dirs_world = _unit(dirs_cam @ self.c2w[:3, :3].T)
        origins = np.broadcast_to(self.position, dirs_world.shape).copy()
        return origins, dirs_world

    def rays_for_pixels(self, u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """World-space ray origins/directions for pixel coordinates.

        Directions are normalised.  ``u``/``v`` may have any matching shape;
        outputs gain a trailing dimension of 3.
        """
        intr = self.intrinsics
        x = (np.asarray(u, dtype=float) - intr.cx) / intr.fx
        y = (np.asarray(v, dtype=float) - intr.cy) / intr.fy
        dirs_cam = np.stack([x, y, np.ones_like(x)], axis=-1)
        return self._world_rays(dirs_cam)

    def generate_rays(self) -> tuple[np.ndarray, np.ndarray]:
        """Rays for every pixel, shape (H, W, 3) each (origins, directions).

        The camera-space lattice is memoised per intrinsics (it is
        pose-independent), so repeated full-frame generation only pays
        the rotation + normalisation.
        """
        return self._world_rays(_camera_dir_grid(self.intrinsics))

    def pixel_directions(self, pixel_ids: np.ndarray) -> np.ndarray:
        """:meth:`generate_rays` directions at flat row-major ``pixel_ids``.

        Equal to ``generate_rays()[1].reshape(-1, 3)[pixel_ids]`` bit for
        bit: the rotation stays one full-frame matrix product (the same
        rows inside a smaller product may round differently), but only the
        requested rows are normalised and no origins are built.
        """
        dirs = _camera_dir_grid(self.intrinsics) @ self.c2w[:3, :3].T
        return _unit(dirs.reshape(-1, 3).take(pixel_ids, axis=0))

    # -- projection ---------------------------------------------------------

    def project_points(self, points_world: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Project world points to pixel coordinates and camera-space depth.

        Returns ``(uv, depth)`` where ``uv`` has shape (..., 2) and ``depth``
        is the z coordinate in the camera frame (positive in front of the
        camera).  Points behind the camera get non-positive depth; callers
        must mask them.
        """
        points = np.asarray(points_world, dtype=float)
        w2c = self.w2c
        cam = points @ w2c[:3, :3].T + w2c[:3, 3]
        depth = cam[..., 2]
        safe = np.where(np.abs(depth) < 1e-12, 1e-12, depth)
        intr = self.intrinsics
        u = intr.fx * cam[..., 0] / safe + intr.cx
        v = intr.fy * cam[..., 1] / safe + intr.cy
        return np.stack([u, v], axis=-1), depth
