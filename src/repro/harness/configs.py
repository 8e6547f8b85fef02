"""Canonical experiment configurations and cached builders.

Centralises the hardware constants of Sec. V and the workload scales used by
every benchmark, and memoises the expensive artefacts (baked fields,
ground-truth sequences) so the bench suite shares them within a process.

Two presets:

* ``DEFAULT`` — the benchmark scale (96 px frames, 96-cell grids).
* ``FAST`` — the unit/integration-test scale (48 px frames, 32-cell grids).

The paper renders 800x800 frames against 10 MB-1 GB models with a 2 MB
on-chip cache; we keep the *ratios* (frame rays >> grid cells for gather
redundancy, model >> cache for miss behaviour) at a scale where the full
suite runs in minutes.  EXPERIMENTS.md records the mapping.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from ..geometry.camera import Intrinsics, PinholeCamera
from ..nerf.fields.hash_grid import HashGridField
from ..nerf.fields.tensor_factor import TensorFactorField
from ..nerf.fields.voxel_grid import VoxelGridField
from ..nerf.renderer import NeRFRenderer
from ..nerf.sampling import OccupancyGrid, UniformSampler
from ..obs.runtime import section
from ..scenes.library import get_scene
from ..scenes.raytracer import RayTracer
from ..scenes.trajectory import orbit_trajectory
from ..workloads.cache import FIELD_CACHE

__all__ = ["ExperimentConfig", "DEFAULT", "FAST", "ALGORITHMS",
           "build_field", "build_renderer", "make_camera",
           "ground_truth_sequence", "scene_of"]

ALGORITHMS = ("instant_ngp", "directvoxgo", "tensorf")


@dataclass(frozen=True)
class ExperimentConfig:
    """Workload scale + hardware constants for one experiment run."""

    # Imaging.
    image_size: int = 96
    fov_deg: float = 45.0
    samples_per_ray: int = 96

    # Field scales.
    grid_resolution: int = 96  # DirectVoxGO dense grid
    hash_levels: int = 6
    hash_finest_resolution: int = 64
    hash_table_size: int = 1 << 15
    tensorf_resolution: int = 96
    tensorf_rank: int = 32
    feature_dim: int = 16
    density_sharpness: float = 200.0
    max_density: float = 800.0

    # Trajectory.
    num_frames: int = 18
    degrees_per_frame: float = 0.5
    orbit_radius: float = 3.2

    # SPARW.
    window: int = 16

    # Memory system.  The paper's 2 MB buffer serves 10 MB-1 GB models at
    # 800x800 frames (cache : per-frame gather traffic << 1); our models are
    # ~5-30 MB at 96x96, so the experiment cache scales down to keep the
    # same regime (see EXPERIMENTS.md for the mapping).
    onchip_cache_bytes: int = 64 * 1024
    cache_block_bytes: int = 64
    vft_buffer_bytes: int = 32 * 1024
    fig6_banks: int = 16
    fig6_rays: int = 16

    def camera_intrinsics(self) -> Intrinsics:
        return Intrinsics.from_fov(self.image_size, self.image_size,
                                   self.fov_deg)


DEFAULT = ExperimentConfig()
FAST = ExperimentConfig(
    image_size=48, samples_per_ray=48, grid_resolution=32,
    hash_levels=4, hash_finest_resolution=32, hash_table_size=1 << 12,
    tensorf_resolution=32, tensorf_rank=12, num_frames=8, window=4,
    # Scale the on-chip cache with the model sizes so miss behaviour keeps
    # the paper's cache << model ratio at test scale.
    onchip_cache_bytes=32 * 1024,
)


def make_camera(config: ExperimentConfig, pose=None) -> PinholeCamera:
    """Camera template for a config (identity pose unless given)."""
    camera = PinholeCamera(config.camera_intrinsics())
    return camera if pose is None else camera.with_pose(pose)


def scene_of(name: str):
    """Cached scene lookup (scenes are deterministic and read-only)."""
    return _cached_scene(name)


@lru_cache(maxsize=None)
def _cached_scene(name: str):
    return get_scene(name)


def _field_config_key(config: ExperimentConfig) -> tuple:
    """The config fields a baked field (and its occupancy) depends on.

    Imaging parameters (``image_size``, ``samples_per_ray``, trajectory
    and memory-system scales) do not enter the bake, so configs that
    differ only in them — the quality-governor's degradation ladder —
    share one baked field in the cache instead of re-baking per tier.
    """
    return (config.grid_resolution, config.hash_levels,
            config.hash_finest_resolution, config.hash_table_size,
            config.tensorf_resolution, config.tensorf_rank,
            config.feature_dim, config.density_sharpness,
            config.max_density)


def _field_size(fld) -> int:
    return int(getattr(fld, "model_size_bytes", 0))


def _reference_resolution(algorithm: str, config: ExperimentConfig) -> int:
    return (config.grid_resolution if algorithm == "directvoxgo"
            else max(config.hash_finest_resolution, config.tensorf_resolution))


def _reference_grid(scene_name: str, resolution: int,
                    config: ExperimentConfig) -> VoxelGridField:
    key = ("refgrid", scene_name, resolution, config.feature_dim,
           config.density_sharpness, config.max_density)
    return FIELD_CACHE.get_or_build(
        key,
        lambda: VoxelGridField.bake(scene_of(scene_name),
                                    resolution=resolution,
                                    feature_dim=config.feature_dim,
                                    density_sharpness=config.density_sharpness,
                                    max_density=config.max_density),
        size_of=_field_size)


def _bake_field(algorithm: str, scene_name: str, config: ExperimentConfig):
    scene = scene_of(scene_name)
    reference = _reference_grid(scene_name,
                                _reference_resolution(algorithm, config),
                                config)
    if algorithm == "directvoxgo":
        return reference
    if algorithm == "instant_ngp":
        return HashGridField.bake(
            scene, num_levels=config.hash_levels,
            finest_resolution=config.hash_finest_resolution,
            table_size=config.hash_table_size,
            feature_dim=config.feature_dim, reference=reference)
    if algorithm == "tensorf":
        return TensorFactorField.bake(
            scene, resolution=config.tensorf_resolution,
            rank_per_mode=config.tensorf_rank,
            feature_dim=config.feature_dim, reference=reference)
    raise KeyError(f"unknown algorithm {algorithm!r}; one of {ALGORITHMS}")


def build_field(algorithm: str, scene_name: str,
                config: ExperimentConfig = DEFAULT):
    """Baked field for (algorithm, scene), from the bounded shared cache.

    A cold bake is timed: one ``workloads.bake_s`` observation on the
    active metrics registry, none on a cache hit.
    """
    key = ("field", algorithm, scene_name, _field_config_key(config))

    def _bake():
        with section("workloads.bake"):
            return _bake_field(algorithm, scene_name, config)

    return FIELD_CACHE.get_or_build(key, _bake, size_of=_field_size)


def _build_occupancy(algorithm: str, scene_name: str,
                     config: ExperimentConfig) -> OccupancyGrid:
    # All algorithms share the dense reference grid's occupancy (they model
    # the same scene); this mirrors the trained occupancy grids NeRF
    # implementations maintain and keeps sample counts comparable.
    reference = _reference_grid(scene_name,
                                _reference_resolution(algorithm, config),
                                config)
    return OccupancyGrid.from_field(reference, resolution=32)


def build_renderer(algorithm: str, scene_name: str,
                   config: ExperimentConfig = DEFAULT) -> NeRFRenderer:
    """Renderer with occupancy-culled sampling and the scene's background.

    Served from the bounded, byte-capped
    :data:`~repro.workloads.cache.FIELD_CACHE`: while an entry is live,
    concurrent sessions of the same workload share one renderer
    instance, which also lets the multi-session engine batch their ray
    work against one field.

    Cache keying (the part that makes quality-tier switching cheap —
    see :func:`_field_config_key`): the key carries *only* the config
    parameters the baked field depends on (grid/hash/tensor scales,
    feature dim, density shaping) plus ``samples_per_ray`` for the
    sampler.  Imaging parameters — ``image_size``, trajectory and
    memory-system scales — are deliberately excluded, so the quality
    governor's degradation ladder (smaller frames, shallower marching)
    resolves to a cheap new sampler around the *same* baked field and
    occupancy grid: a tier switch never re-bakes.  Entries evict LRU
    under the cache's entry/byte bounds, unlike the unbounded per-process
    memo this replaced in PR 2.
    """
    key = ("renderer", algorithm, scene_name, _field_config_key(config),
           config.samples_per_ray)

    def _build() -> NeRFRenderer:
        field = build_field(algorithm, scene_name, config)
        occupancy = _build_occupancy(algorithm, scene_name, config)
        sampler = UniformSampler(config.samples_per_ray, occupancy=occupancy)
        scene = scene_of(scene_name)
        return NeRFRenderer(field, sampler, background=scene.background)

    return FIELD_CACHE.get_or_build(key, _build)


@lru_cache(maxsize=None)
def _cached_gt_sequence(scene_name: str, config: ExperimentConfig,
                        degrees_per_frame: float):
    scene = scene_of(scene_name)
    tracer = RayTracer(scene)
    trajectory = orbit_trajectory(config.num_frames,
                                  radius=config.orbit_radius,
                                  degrees_per_frame=degrees_per_frame)
    camera = make_camera(config)
    frames = [tracer.render(camera.with_pose(p)) for p in trajectory.poses]
    return trajectory, tuple(frames)


def ground_truth_sequence(scene_name: str, config: ExperimentConfig = DEFAULT,
                          degrees_per_frame: float | None = None):
    """(trajectory, ground-truth frames) for an orbit, cached per process."""
    dpf = (config.degrees_per_frame if degrees_per_frame is None
           else degrees_per_frame)
    trajectory, frames = _cached_gt_sequence(scene_name, config, dpf)
    return trajectory, list(frames)
