"""Pixel-centric NeRF renderer: full frames and sparse pixel sets.

This is the *baseline* rendering order the paper starts from: rays are
processed in image order (pixel-centric), each ray sampling, gathering, and
decoding independently — which is exactly what produces the irregular memory
traffic characterised in Sec. II-D.  The renderer also produces
:class:`RenderStats` (ray/sample/MAC counts) that feed the hardware model,
and can record the gather plan of every batch for the memory experiments.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from ..geometry.camera import PinholeCamera
from ..obs.runtime import section
from ..scenes.raytracer import Frame
from .sampling import UniformSampler
from .volume_render import composite

__all__ = ["RenderStats", "NeRFRenderer"]


@dataclass
class RenderStats:
    """Work counters for one render call (inputs to the hardware model)."""

    num_rays: int = 0
    num_samples: int = 0
    mlp_macs: int = 0
    gather_vertex_accesses: int = 0
    gather_bytes: int = 0

    def merge(self, other: "RenderStats") -> "RenderStats":
        return RenderStats(
            num_rays=self.num_rays + other.num_rays,
            num_samples=self.num_samples + other.num_samples,
            mlp_macs=self.mlp_macs + other.mlp_macs,
            gather_vertex_accesses=(self.gather_vertex_accesses
                                    + other.gather_vertex_accesses),
            gather_bytes=self.gather_bytes + other.gather_bytes,
        )


@dataclass
class RenderOutput:
    """Raw per-ray render results plus bookkeeping."""

    rgb: np.ndarray
    depth_t: np.ndarray  # distance along the ray
    opacity: np.ndarray
    stats: RenderStats
    gather_groups: list = field(default_factory=list)


class NeRFRenderer:
    """Renders a radiance field through volume rendering, in ray chunks."""

    def __init__(self, fld, sampler: UniformSampler | None = None,
                 background=None, chunk_size: int = 16384,
                 opacity_threshold: float = 0.5, backend: str | None = None):
        self.field = fld
        self.sampler = sampler or UniformSampler()
        self.background = background
        self.chunk_size = int(chunk_size)
        self.opacity_threshold = opacity_threshold
        # Inert: nothing in src/ passes or reads it.  Pinned by the frozen
        # benchmarks/e2e driver, whose _TimedRenderer forwards inner.backend.
        self.backend = backend

    # -- ray rendering -----------------------------------------------------------

    def render_rays(self, origins: np.ndarray, directions: np.ndarray,
                    record_gather: bool = False) -> RenderOutput:
        """Render a flat bundle of rays; returns per-ray color/depth/opacity.

        With ``record_gather`` the output also carries the gather plan of
        every chunk.
        """
        (out,), groups = self._render([(origins, directions)], record_gather)
        out.gather_groups = groups
        return out

    def render_ray_batch(self, bundles: list) -> list:
        """Render several ray bundles through shared vectorized field queries.

        ``bundles`` is a list of ``(origins, directions)`` flat ray arrays
        (e.g. one bundle per concurrent rendering session).  Each returned
        :class:`RenderOutput` is identical to :meth:`render_rays` on its
        bundle alone.
        """
        return self._render(bundles, record_gather=False)[0]

    def _render(self, bundles: list, record_gather: bool
                ) -> tuple[list, list]:
        """The one chunk loop: sample, interpolate, decode, composite.

        All rays are flattened into one stream, so sampling, feature
        interpolation and decoding run on combined chunks — a single field
        evaluation spans every bundle (per-sample values are independent
        of chunk composition).  Compositing and work-stat accounting
        replay the chunk boundaries each bundle has alone (the segmented
        scan in `composite` depends on them), each as soon as its samples
        are decoded, so a lone bundle holds one chunk's samples at a time.
        Returns ``(outputs, groups)``: ``groups`` are the gather plans of
        every chunk, built only with ``record_gather``.
        """
        rays = [(np.atleast_2d(np.asarray(o, dtype=float)),
                 np.atleast_2d(np.asarray(d, dtype=float)))
                for o, d in bundles]
        outputs, chunks, total = [], deque(), 0
        for o, _ in rays:
            n = o.shape[0]
            out = RenderOutput(rgb=np.zeros((n, 3)), depth_t=np.full(n, np.inf),
                               opacity=np.zeros(n),
                               stats=RenderStats(num_rays=n))
            outputs.append(out)
            # Each chunk of the bundle alone: (stream index of its first
            # ray, stream index past its last, its output, its start there).
            chunks.extend((total + cs, total + min(cs + self.chunk_size, n),
                           out, cs) for cs in range(0, n, self.chunk_size))
            total += n
        groups: list = []
        if total == 0:
            return outputs, groups
        flat_o, flat_d = (rays[0] if len(rays) == 1  # a lone bundle: no copy
                          else [np.concatenate(arrays) for arrays in zip(*rays)])

        macs = self.field.decoder.macs_per_sample()
        accesses, nbytes = self.field.gather_cost  # per sample
        pending: list = []  # decoded chunks with samples not yet composited
        for start in range(0, total, self.chunk_size):
            stop = min(start + self.chunk_size, total)
            with section("nerf.sample"):
                samples = self.sampler.sample(flat_o[start:stop],
                                              flat_d[start:stop],
                                              self.field.bounds)
            if len(samples):
                if record_gather:
                    groups.extend(self.field.gather_plan(samples.positions))
                with section("nerf.interpolate"):
                    features = self.field.interpolate(samples.positions)
                with section("nerf.decode"):
                    sigma, rgb_s = self.field.decode(features,
                                                     samples.directions)
                pending.append((start, samples.ray_index, sigma, rgb_s,
                                samples.t_values, samples.deltas))
            while chunks and chunks[0][1] <= stop:
                first, end, out, cs = chunks.popleft()
                pieces = []
                for begin, ray_index, *arrays in pending:
                    lo, hi = np.searchsorted(ray_index,
                                             (first - begin, end - begin))
                    if hi > lo:
                        # Ray indices relative to the bundle chunk: the
                        # sampler's own when the chunks start together.
                        local = ray_index[lo:hi]
                        pieces.append([local + (begin - first)
                                       if begin != first else local,
                                       *(array[lo:hi] for array in arrays)])
                # Keep the chunks that still hold samples of later rays.
                pending = [part for part in pending
                           if part[0] + part[1][-1] >= end]
                if not pieces:
                    continue
                ray_of, sigma, rgb_s, t_values, deltas = (
                    pieces[0] if len(pieces) == 1
                    else [np.concatenate(arrays) for arrays in zip(*pieces)])
                with section("nerf.composite"):
                    result = composite(sigma, rgb_s, t_values, deltas,
                                       ray_of, end - first)
                ce = cs + end - first
                out.rgb[cs:ce] = result.rgb
                out.depth_t[cs:ce] = result.depth
                out.opacity[cs:ce] = result.opacity
                nsamp = len(sigma)
                out.stats.num_samples += nsamp
                out.stats.mlp_macs += nsamp * macs
                out.stats.gather_vertex_accesses += accesses * nsamp
                out.stats.gather_bytes += nbytes * nsamp
        return outputs, groups

    # -- frame-level API ---------------------------------------------------------

    def compose_pixels(self, camera: PinholeCamera, directions: np.ndarray,
                       out: RenderOutput) -> tuple[np.ndarray, np.ndarray]:
        """(colors, z_depth) of rendered rays: background, depth, threshold."""
        colors = out.rgb
        if self.background is not None:
            colors = colors + (1.0 - out.opacity[:, None]) * self.background(directions)
        forward = camera.c2w[:3, 2]
        z = out.depth_t * (directions @ forward)
        solid = out.opacity >= self.opacity_threshold
        z = np.where(solid & np.isfinite(out.depth_t), z, np.inf)
        return np.clip(colors, 0.0, 1.0), z

    def compose_frame(self, camera: PinholeCamera, flat_directions: np.ndarray,
                      out: RenderOutput) -> Frame:
        """Assemble a :class:`Frame` from the raw output of a full-frame pass."""
        colors, z = self.compose_pixels(camera, flat_directions, out)
        shape = (camera.height, camera.width)
        return Frame(image=colors.reshape(*shape, 3), depth=z.reshape(shape),
                     hit=(out.opacity >= self.opacity_threshold).reshape(shape),
                     c2w=camera.c2w.copy())

    def render_frame(self, camera: PinholeCamera,
                     record_gather: bool = False) -> tuple[Frame, RenderOutput]:
        """Render a full frame; returns the Frame and the raw output."""
        origins, directions = camera.generate_rays()
        flat_o = origins.reshape(-1, 3)
        flat_d = directions.reshape(-1, 3)
        out = self.render_rays(flat_o, flat_d, record_gather=record_gather)
        return self.compose_frame(camera, flat_d, out), out

    def render_pixels(self, camera: PinholeCamera, pixel_ids: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray, RenderOutput]:
        """Render a sparse pixel subset; returns (colors, z_depth, output)."""
        pixel_ids = np.asarray(pixel_ids, dtype=np.int64)
        if pixel_ids.size == 0:
            empty = RenderOutput(rgb=np.zeros((0, 3)), depth_t=np.zeros(0),
                                 opacity=np.zeros(0), stats=RenderStats())
            return np.zeros((0, 3)), np.zeros(0), empty
        v, u = np.divmod(pixel_ids, camera.width)
        origins, directions = camera.rays_for_pixels(u + 0.5, v + 0.5)
        out = self.render_rays(origins, directions)
        colors, z = self.compose_pixels(camera, directions, out)
        return colors, z, out
