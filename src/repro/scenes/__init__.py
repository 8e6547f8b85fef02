"""Procedural scenes, ground-truth ray tracer, and camera trajectories."""

from .library import (
    REAL_WORLD_SCENES,
    SYNTHETIC_SCENES,
    bonsai_like,
    get_scene,
    ignatius_like,
)
from .raytracer import Frame, RayTracer
from .scene import DirectionalLight, Material, Scene, SceneObject
from .sdf import SDF, Box, Cylinder, Sphere, Torus
from .trajectory import (
    TRAJECTORY_KINDS,
    Trajectory,
    dolly_trajectory,
    handheld_trajectory,
    headshake_trajectory,
    load_pose_log,
    make_trajectory,
    orbit_trajectory,
    random_walk_trajectory,
    replay_trajectory,
    save_pose_log,
)

__all__ = [
    "REAL_WORLD_SCENES",
    "SYNTHETIC_SCENES",
    "bonsai_like",
    "get_scene",
    "ignatius_like",
    "Frame",
    "RayTracer",
    "DirectionalLight",
    "Material",
    "Scene",
    "SceneObject",
    "SDF",
    "Box",
    "Cylinder",
    "Sphere",
    "Torus",
    "TRAJECTORY_KINDS",
    "Trajectory",
    "dolly_trajectory",
    "handheld_trajectory",
    "headshake_trajectory",
    "load_pose_log",
    "make_trajectory",
    "orbit_trajectory",
    "random_walk_trajectory",
    "replay_trajectory",
    "save_pose_log",
]
