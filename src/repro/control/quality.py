"""Perceptual-quality accounting for governed serving.

Deterministic probe: render the first frames of a workload's trajectory
through the real SPARW pipeline at a ladder level and score them against
the ray-traced ground truth at the same resolution.  Probes are cached in
the shared ``FIELD_CACHE`` (content-addressed by the spec's cache key at
that level), so a frontier sweep prices each (workload, level) pair once per
process.  ``psnr`` may legitimately return ``inf`` for identical frames;
the reporting layer's strict JSON encoder keeps that out of artifacts.
"""

from __future__ import annotations

from ..metrics.quality import mean_psnr

__all__ = ["level_quality", "quality_floor", "mean_psnr_of_levels"]

_PROBE_FRAMES = 2


def level_quality(spec, base, level: int) -> float:
    """Probe PSNR (dB) of this workload rendered at a ladder level."""
    from ..harness.configs import make_camera, scene_of
    from ..scenes.raytracer import RayTracer
    from ..workloads.cache import FIELD_CACHE
    key = ("tier_psnr", spec.cache_key(base, level), _PROBE_FRAMES)

    def _probe() -> float:
        poses = spec.build_trajectory(base).poses[:_PROBE_FRAMES]
        result = spec.build_sparw(base, level).render_sequence(poses)
        tracer = RayTracer(scene_of(spec.scene))
        camera = make_camera(spec.resolve_config(base, level))
        truth = [tracer.render(camera.with_pose(p)) for p in poses]
        return mean_psnr([f.image for f in result.frames],
                         [f.image for f in truth])

    return FIELD_CACHE.get_or_build(key, _probe)


def quality_floor(spec, base) -> float:
    """Lowest probe PSNR the governor may reach for this workload.

    The minimum over every *allowed* ladder rung (down to the spec's
    ``min_quality_tier``), so "mean served PSNR stays above the floor"
    holds by construction whenever the governor respects the tier bound.
    """
    return min(level_quality(spec, base, level)
               for level in range(spec.max_quality_level + 1))


def mean_psnr_of_levels(spec, base, frames_by_level: dict) -> float:
    """Frame-weighted mean probe PSNR of one workload's served frames.

    ``frames_by_level`` maps ladder level -> frames served at it (the
    cluster report's quality accounting).  Returns 0.0 for no frames.
    """
    total = sum(frames_by_level.values())
    if not total:
        return 0.0
    return sum(level_quality(spec, base, int(level)) * count
               for level, count in frames_by_level.items()) / total
