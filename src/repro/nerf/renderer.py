"""Pixel-centric NeRF renderer: full frames and sparse pixel sets.

This is the *baseline* rendering order the paper starts from: rays are
processed in image order (pixel-centric), each ray sampling, gathering, and
decoding independently — which is exactly what produces the irregular memory
traffic characterised in Sec. II-D.  The renderer also produces
:class:`RenderStats` (ray/sample/MAC counts) that feed the hardware model,
and can record the gather plan of every batch for the memory experiments.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..geometry.camera import PinholeCamera
from ..obs.runtime import section
from ..scenes.raytracer import Frame
from .sampling import RaySamples, UniformSampler
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


def _count_gather(stats: RenderStats, fld, num_samples: int) -> None:
    """Charge ``num_samples`` samples' gathers to ``stats`` (no plan built)."""
    accesses, nbytes = fld.gather_cost
    stats.gather_vertex_accesses += accesses * num_samples
    stats.gather_bytes += nbytes * num_samples


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

    # -- core ray rendering ----------------------------------------------------

    def render_rays(self, origins: np.ndarray, directions: np.ndarray,
                    record_gather: bool = False) -> RenderOutput:
        """Render a flat bundle of rays; returns per-ray color/depth/opacity."""
        origins = np.atleast_2d(np.asarray(origins, dtype=float))
        directions = np.atleast_2d(np.asarray(directions, dtype=float))
        num_rays = origins.shape[0]

        rgb = np.zeros((num_rays, 3))
        depth = np.full(num_rays, np.inf)
        opacity = np.zeros(num_rays)
        stats = RenderStats(num_rays=num_rays)
        groups = []

        for start in range(0, num_rays, self.chunk_size):
            stop = min(start + self.chunk_size, num_rays)
            with section("nerf.sample"):
                samples = self.sampler.sample(origins[start:stop],
                                              directions[start:stop],
                                              self.field.bounds)
            out = self._render_samples(samples, record_gather)
            rgb[start:stop] = out.rgb
            depth[start:stop] = out.depth_t
            opacity[start:stop] = out.opacity
            stats = stats.merge(out.stats)
            groups.extend(out.gather_groups)

        stats.num_rays = num_rays
        return RenderOutput(rgb=rgb, depth_t=depth, opacity=opacity,
                            stats=stats, gather_groups=groups)

    def _render_samples(self, samples: RaySamples, record_gather: bool
                        ) -> RenderOutput:
        stats = RenderStats(num_samples=len(samples))
        groups = []
        if len(samples) == 0:
            zeros = np.zeros(samples.num_rays)
            return RenderOutput(rgb=np.zeros((samples.num_rays, 3)),
                                depth_t=np.full(samples.num_rays, np.inf),
                                opacity=zeros, stats=stats)

        if record_gather:
            groups = self.field.gather_plan(samples.positions)
            for group in groups:
                accesses = group.vertices_per_sample * group.num_samples
                stats.gather_vertex_accesses += accesses
                stats.gather_bytes += accesses * group.entry_bytes
        else:
            _count_gather(stats, self.field, len(samples))

        with section("nerf.interpolate"):
            features = self.field.interpolate(samples.positions)
        with section("nerf.decode"):
            sigma, rgb_s = self.field.decode(features, samples.directions)
        stats.mlp_macs = len(samples) * self.field.decoder.macs_per_sample()

        with section("nerf.composite"):
            result = composite(sigma, rgb_s, samples.t_values, samples.deltas,
                               samples.ray_index, samples.num_rays)
        return RenderOutput(rgb=result.rgb, depth_t=result.depth,
                            opacity=result.opacity, stats=stats,
                            gather_groups=groups)

    # -- batched ray rendering ---------------------------------------------------

    def render_ray_batch(self, bundles: list) -> list:
        """Render several ray bundles through shared vectorized field queries.

        ``bundles`` is a list of ``(origins, directions)`` flat ray arrays
        (e.g. one bundle per concurrent rendering session).  All rays are
        flattened into one stream so sampling, feature interpolation, and
        decoding run on combined chunks — a single field evaluation spans
        every bundle.  Compositing and work-stat accounting then replay the
        exact per-bundle chunk boundaries of :meth:`render_rays`, so each
        returned :class:`RenderOutput` is identical to rendering its bundle
        alone (the sampler must be deterministic, i.e. ``jitter=False``).
        """
        prepped = []
        for origins, directions in bundles:
            o = np.atleast_2d(np.asarray(origins, dtype=float))
            d = np.atleast_2d(np.asarray(directions, dtype=float))
            prepped.append((o, d))
        sizes = [o.shape[0] for o, _ in prepped]
        total = sum(sizes)
        if total == 0:
            return [RenderOutput(rgb=np.zeros((0, 3)), depth_t=np.zeros(0),
                                 opacity=np.zeros(0), stats=RenderStats())
                    for _ in prepped]
        flat_o = np.concatenate([o for o, _ in prepped], axis=0)
        flat_d = np.concatenate([d for _, d in prepped], axis=0)

        # Phase 1: one vectorized sample/interpolate/decode pass over chunks
        # of the *combined* ray stream.  Per-sample values are independent of
        # chunk composition, so this is safe to share across bundles.
        parts: list = []
        for start in range(0, total, self.chunk_size):
            stop = min(start + self.chunk_size, total)
            with section("nerf.sample"):
                samples = self.sampler.sample(flat_o[start:stop],
                                              flat_d[start:stop],
                                              self.field.bounds)
            if len(samples) == 0:
                continue
            with section("nerf.interpolate"):
                features = self.field.interpolate(samples.positions)
            with section("nerf.decode"):
                sigma, rgb_s = self.field.decode(features, samples.directions)
            parts.append((samples.ray_index + start, sigma, rgb_s,
                          samples.t_values, samples.deltas))
        if parts:
            ray_of = np.concatenate([p[0] for p in parts])
            sigma = np.concatenate([p[1] for p in parts])
            rgb_s = np.concatenate([p[2] for p in parts], axis=0)
            t_values = np.concatenate([p[3] for p in parts])
            deltas = np.concatenate([p[4] for p in parts])
        else:
            ray_of = np.zeros(0, dtype=np.int64)

        # Phase 2: composite and count work per bundle, replaying the chunk
        # boundaries render_rays would have used for that bundle alone (the
        # segmented scan in `composite` depends on them).
        outputs = []
        offset = 0
        macs = self.field.decoder.macs_per_sample()
        for n in sizes:
            rgb = np.zeros((n, 3))
            depth = np.full(n, np.inf)
            opacity = np.zeros(n)
            stats = RenderStats(num_rays=n)
            for cs in range(0, n, self.chunk_size):
                ce = min(cs + self.chunk_size, n)
                lo = np.searchsorted(ray_of, offset + cs)
                hi = np.searchsorted(ray_of, offset + ce)
                nsamp = int(hi - lo)
                stats.num_samples += nsamp
                if nsamp == 0:
                    continue
                with section("nerf.composite"):
                    result = composite(sigma[lo:hi], rgb_s[lo:hi],
                                       t_values[lo:hi], deltas[lo:hi],
                                       ray_of[lo:hi] - (offset + cs), ce - cs)
                rgb[cs:ce] = result.rgb
                depth[cs:ce] = result.depth
                opacity[cs:ce] = result.opacity
                _count_gather(stats, self.field, nsamp)
                stats.mlp_macs += nsamp * macs
            outputs.append(RenderOutput(rgb=rgb, depth_t=depth,
                                        opacity=opacity, stats=stats))
            offset += n
        return outputs

    # -- frame-level API ---------------------------------------------------------

    def compose_frame(self, camera: PinholeCamera, flat_directions: np.ndarray,
                      out: RenderOutput) -> Frame:
        """Assemble a :class:`Frame` from the raw output of a full-frame pass."""
        height, width = camera.height, camera.width
        solid = out.opacity >= self.opacity_threshold
        image = out.rgb.copy()
        if self.background is not None:
            bg = self.background(flat_directions)
            image = image + (1.0 - out.opacity[:, None]) * bg
        forward = camera.c2w[:3, 2]
        z = out.depth_t * (flat_directions @ forward)
        depth = np.where(solid & np.isfinite(out.depth_t), z, np.inf)

        return Frame(image=np.clip(image, 0.0, 1.0).reshape(height, width, 3),
                     depth=depth.reshape(height, width),
                     hit=solid.reshape(height, width),
                     c2w=camera.c2w.copy())

    def compose_pixels(self, camera: PinholeCamera, directions: np.ndarray,
                       out: RenderOutput) -> tuple[np.ndarray, np.ndarray]:
        """(colors, z_depth) for a sparse pixel pass from its raw output."""
        colors = out.rgb.copy()
        if self.background is not None:
            colors = colors + (1.0 - out.opacity[:, None]) * self.background(directions)
        forward = camera.c2w[:3, 2]
        z = out.depth_t * (directions @ forward)
        solid = out.opacity >= self.opacity_threshold
        z = np.where(solid & np.isfinite(out.depth_t), z, np.inf)
        return np.clip(colors, 0.0, 1.0), z

    def render_frame(self, camera: PinholeCamera,
                     record_gather: bool = False) -> tuple[Frame, RenderOutput]:
        """Render a full frame; returns the Frame and the raw output."""
        origins, directions = camera.generate_rays()
        flat_o = origins.reshape(-1, 3)
        flat_d = directions.reshape(-1, 3)
        out = self.render_rays(flat_o, flat_d, record_gather=record_gather)
        return self.compose_frame(camera, flat_d, out), out

    def render_pixels(self, camera: PinholeCamera, pixel_ids: np.ndarray,
                      record_gather: bool = False
                      ) -> tuple[np.ndarray, np.ndarray, RenderOutput]:
        """Render a sparse pixel subset; returns (colors, z_depth, output)."""
        pixel_ids = np.asarray(pixel_ids, dtype=np.int64)
        if pixel_ids.size == 0:
            empty = RenderOutput(rgb=np.zeros((0, 3)), depth_t=np.zeros(0),
                                 opacity=np.zeros(0), stats=RenderStats())
            return np.zeros((0, 3)), np.zeros(0), empty
        v, u = np.divmod(pixel_ids, camera.width)
        origins, directions = camera.rays_for_pixels(u + 0.5, v + 0.5)
        out = self.render_rays(origins, directions, record_gather=record_gather)
        colors, z = self.compose_pixels(camera, directions, out)
        return colors, z, out
