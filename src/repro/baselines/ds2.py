"""DS-2 baseline: render at half resolution, bilinearly upsample (Fig. 16).

The paper's quality/speed strawman: a 2x downsampled NeRF render costs ~1/4
the rays, then bilinear interpolation restores full resolution.  SPARW must
beat this trade-off to be interesting.
"""

from __future__ import annotations

import numpy as np

from ..geometry.camera import PinholeCamera
from ..nerf.renderer import NeRFRenderer, RenderStats
from ..scenes.raytracer import Frame

__all__ = ["bilinear_upsample", "DS2Renderer"]


def bilinear_upsample(image: np.ndarray, out_height: int, out_width: int
                      ) -> np.ndarray:
    """Bilinear upsampling of (h, w[, c]) to (out_height, out_width[, c])."""
    image = np.asarray(image, dtype=float)
    in_h, in_w = image.shape[:2]
    ys = (np.arange(out_height) + 0.5) * in_h / out_height - 0.5
    xs = (np.arange(out_width) + 0.5) * in_w / out_width - 0.5
    ys = np.clip(ys, 0.0, in_h - 1.0)
    xs = np.clip(xs, 0.0, in_w - 1.0)

    y0 = np.floor(ys).astype(np.int64)
    x0 = np.floor(xs).astype(np.int64)
    y1 = np.minimum(y0 + 1, in_h - 1)
    x1 = np.minimum(x0 + 1, in_w - 1)
    wy = (ys - y0)[:, None]
    wx = (xs - x0)[None, :]
    if image.ndim == 3:
        wy = wy[..., None]
        wx = wx[..., None]

    top = image[y0][:, x0] * (1 - wx) + image[y0][:, x1] * wx
    bottom = image[y1][:, x0] * (1 - wx) + image[y1][:, x1] * wx
    return top * (1 - wy) + bottom * wy


class DS2Renderer:
    """Renders every frame at half resolution and upsamples."""

    def __init__(self, renderer: NeRFRenderer, camera: PinholeCamera):
        self.renderer = renderer
        self.camera = camera

    def render_frame(self, pose: np.ndarray) -> tuple[Frame, RenderStats]:
        """One DS-2 frame at ``pose``, upsampled to full resolution."""
        low_camera = self.camera.scaled(0.5).with_pose(pose)
        low_frame, out = self.renderer.render_frame(low_camera)

        height, width = self.camera.height, self.camera.width
        image = bilinear_upsample(low_frame.image, height, width)
        # Depth/hit upsample nearest-neighbour (interpolating depth across
        # silhouettes would invent geometry).
        ys = np.minimum((np.arange(height) * low_frame.depth.shape[0]) // height,
                        low_frame.depth.shape[0] - 1)
        xs = np.minimum((np.arange(width) * low_frame.depth.shape[1]) // width,
                        low_frame.depth.shape[1] - 1)
        depth = low_frame.depth[ys][:, xs]
        hit = low_frame.hit[ys][:, xs]
        frame = Frame(image=np.clip(image, 0.0, 1.0), depth=depth, hit=hit,
                      c2w=np.asarray(pose, dtype=float))
        return frame, out.stats

    def render_sequence(self, poses: list) -> tuple[list, RenderStats]:
        """Render a pose sequence; returns (frames, total stats)."""
        frames = []
        total = RenderStats()
        for pose in poses:
            frame, stats = self.render_frame(pose)
            frames.append(frame)
            total = total.merge(stats)
        return frames, total
