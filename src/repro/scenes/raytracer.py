"""Ground-truth sphere-tracing renderer.

Renders a :class:`~repro.scenes.scene.Scene` exactly by marching rays through
its SDF.  This is the reproduction's stand-in for the paper's captured
datasets: it provides *reference images* for PSNR and *depth maps* for
SPARW's point-cloud conversion (which the paper obtained from photogrammetry
meshes / depth buffers).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..geometry.camera import PinholeCamera

__all__ = ["Frame", "RayTracer"]


@dataclass
class Frame:
    """A rendered frame: color image, z-depth map, hit mask, and the pose.

    ``depth`` is the metric distance along the camera z axis; misses (void /
    background pixels) carry ``+inf`` depth — SPARW's depth test uses this to
    skip sparse NeRF rendering on void pixels.
    """

    image: np.ndarray  # (H, W, 3) float in [0, 1]
    depth: np.ndarray  # (H, W) z-depth, +inf at misses
    hit: np.ndarray  # (H, W) bool
    c2w: np.ndarray  # (4, 4)


class RayTracer:
    """Sphere tracer with fixed iteration budget and distance threshold."""

    def __init__(self, scene):
        self.scene = scene
        self.max_steps = 96
        self.hit_eps = 1e-3
        self.max_distance = 30.0

    # -- core marching -------------------------------------------------------

    def trace(self, origins: np.ndarray, directions: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray]:
        """March rays; return (t, hit) with t the distance along each ray."""
        origins = np.asarray(origins, dtype=float).reshape(-1, 3)
        directions = np.asarray(directions, dtype=float).reshape(-1, 3)
        n = origins.shape[0]
        t = np.zeros(n)
        alive = np.ones(n, dtype=bool)
        hit = np.zeros(n, dtype=bool)

        for _ in range(self.max_steps):
            if not alive.any():
                break
            points = origins[alive] + t[alive, None] * directions[alive]
            dist = self.scene.distance(points)
            newly_hit = dist < self.hit_eps
            alive_idx = np.nonzero(alive)[0]
            hit[alive_idx[newly_hit]] = True
            t[alive] += np.maximum(dist, self.hit_eps * 0.5)
            overshot = t[alive] > self.max_distance
            still = ~(newly_hit | overshot)
            alive[alive_idx] = still
        return t, hit

    def shade_hits(self, origins: np.ndarray, directions: np.ndarray,
                   t: np.ndarray, hit: np.ndarray) -> np.ndarray:
        """Colors for all rays: shaded hit points, background for misses."""
        colors = self.scene.background(directions)
        if hit.any():
            points = origins[hit] + t[hit, None] * directions[hit]
            normals = self.scene.normals(points)
            colors[hit] = self.scene.shade(points, normals, directions[hit])
        return colors

    # -- frame rendering -------------------------------------------------------

    def render(self, camera: PinholeCamera) -> Frame:
        """Render a full frame (color + depth) from ``camera``."""
        origins, directions = camera.generate_rays()
        flat_o = origins.reshape(-1, 3)
        flat_d = directions.reshape(-1, 3)
        t, hit = self.trace(flat_o, flat_d)
        colors = self.shade_hits(flat_o, flat_d, t, hit)

        height, width = camera.height, camera.width
        image = colors.reshape(height, width, 3)
        # Convert ray-distance to z-depth: project the hit point onto the
        # camera's forward axis so depth matches the pinhole model.
        forward = camera.c2w[:3, 2]
        z = t * (flat_d @ forward)
        depth = np.where(hit, z, np.inf).reshape(height, width)
        return Frame(image=image, depth=depth,
                     hit=hit.reshape(height, width), c2w=camera.c2w.copy())
