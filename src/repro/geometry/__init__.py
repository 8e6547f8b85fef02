"""Geometry substrate: cameras, poses, rays, point clouds, projection."""

from .camera import Intrinsics, PinholeCamera
from .pointcloud import depth_to_points, transform_points
from .rays import intersect_aabb
from .transforms import (
    extrapolate_pose,
    invert_pose,
    look_at,
    make_pose,
    pose_rotation,
    pose_translation,
    relative_pose,
    rotation_from_axis_angle,
)

__all__ = [
    "Intrinsics",
    "PinholeCamera",
    "depth_to_points",
    "transform_points",
    "intersect_aabb",
    "extrapolate_pose",
    "invert_pose",
    "look_at",
    "make_pose",
    "pose_rotation",
    "pose_translation",
    "relative_pose",
    "rotation_from_axis_angle",
]
