"""Rigid-body (SE(3)) transforms and pose utilities.

Conventions
-----------
* Poses are 4x4 homogeneous matrices mapping *camera* coordinates to *world*
  coordinates (camera-to-world, often written ``c2w``).
* The camera frame follows the computer-vision convention: ``+x`` right,
  ``+y`` down, ``+z`` forward (into the scene).
* Rotations are proper (determinant +1) orthonormal matrices.

These helpers back both the ground-truth ray tracer and the SPARW warping
math (Eq. 2 of the paper, the reference-to-target transform).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "rotation_from_axis_angle",
    "make_pose",
    "invert_pose",
    "relative_pose",
    "look_at",
    "pose_translation",
    "pose_rotation",
    "extrapolate_pose",
]


def rotation_from_axis_angle(axis: np.ndarray, angle_rad: float) -> np.ndarray:
    """Rodrigues' formula: rotation of ``angle_rad`` about unit-ish ``axis``."""
    axis = np.asarray(axis, dtype=float)
    norm = np.linalg.norm(axis)
    if norm == 0.0:
        raise ValueError("rotation axis must be non-zero")
    x, y, z = axis / norm
    k = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    return np.eye(3) + np.sin(angle_rad) * k + (1.0 - np.cos(angle_rad)) * (k @ k)


def make_pose(rotation: np.ndarray, translation: np.ndarray) -> np.ndarray:
    """Assemble a 4x4 pose from a 3x3 rotation and a 3-vector translation."""
    pose = np.eye(4)
    pose[:3, :3] = rotation
    pose[:3, 3] = np.asarray(translation, dtype=float).reshape(3)
    return pose


def invert_pose(pose: np.ndarray) -> np.ndarray:
    """Invert an SE(3) pose without a general 4x4 inverse (exact + cheap)."""
    rotation = pose[:3, :3]
    translation = pose[:3, 3]
    inv = np.eye(4)
    inv[:3, :3] = rotation.T
    inv[:3, 3] = -rotation.T @ translation
    return inv


def relative_pose(src_c2w: np.ndarray, dst_c2w: np.ndarray) -> np.ndarray:
    """Transform taking *src-camera* coordinates to *dst-camera* coordinates.

    This is ``T_ref->tgt`` in Eq. 2 of the paper: a point expressed in the
    reference camera frame, multiplied by this matrix, lands in the target
    camera frame.
    """
    return invert_pose(dst_c2w) @ src_c2w


def look_at(eye: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Camera-to-world pose for a camera at ``eye`` looking at ``target``.

    Uses the CV convention (+z forward, +y down in camera frame), so the
    world-space up, +y, maps to camera ``-y``.
    """
    eye = np.asarray(eye, dtype=float)
    target = np.asarray(target, dtype=float)
    forward = target - eye
    norm = np.linalg.norm(forward)
    if norm == 0.0:
        raise ValueError("eye and target coincide")
    forward = forward / norm
    up = np.array([0.0, 1.0, 0.0])
    right = np.cross(forward, up)
    right_norm = np.linalg.norm(right)
    if right_norm < 1e-9:
        # Degenerate up: pick any perpendicular axis.
        up = np.array([1.0, 0.0, 0.0]) if abs(forward[1]) > 0.9 else np.array([0.0, 1.0, 0.0])
        right = np.cross(forward, up)
        right_norm = np.linalg.norm(right)
    right = right / right_norm
    down = np.cross(forward, right)
    rotation = np.stack([right, down, forward], axis=1)
    return make_pose(rotation, eye)


def pose_translation(pose: np.ndarray) -> np.ndarray:
    """Translation (camera centre in world coordinates) of a c2w pose."""
    return pose[:3, 3].copy()


def pose_rotation(pose: np.ndarray) -> np.ndarray:
    """Rotation block of a pose."""
    return pose[:3, :3].copy()


def _orthonormalize(rotation: np.ndarray) -> np.ndarray:
    """Project a near-rotation matrix back onto SO(3) via SVD."""
    u, _, vt = np.linalg.svd(rotation)
    rot = u @ vt
    if np.linalg.det(rot) < 0.0:
        u[:, -1] = -u[:, -1]
        rot = u @ vt
    return rot


def extrapolate_pose(prev: np.ndarray, curr: np.ndarray, steps: float) -> np.ndarray:
    """Constant-velocity pose extrapolation (Eq. 5-6 of the paper).

    ``prev`` and ``curr`` are consecutive c2w poses one frame apart.  The
    returned pose continues the motion ``steps`` frame-intervals past
    ``curr``; fractional ``steps`` are allowed.  Translation extrapolates
    linearly; rotation extrapolates by repeating the relative rotation
    (first-order, adequate for the small per-frame deltas of a real camera).
    """
    delta_t = pose_translation(curr) - pose_translation(prev)
    rel_rot = pose_rotation(curr) @ pose_rotation(prev).T
    angle = np.arccos(np.clip((np.trace(rel_rot) - 1.0) / 2.0, -1.0, 1.0))
    if angle < 1e-9:
        rot = pose_rotation(curr)
    else:
        axis = np.array([
            rel_rot[2, 1] - rel_rot[1, 2],
            rel_rot[0, 2] - rel_rot[2, 0],
            rel_rot[1, 0] - rel_rot[0, 1],
        ]) / (2.0 * np.sin(angle))
        rot = rotation_from_axis_angle(axis, angle * steps) @ pose_rotation(curr)
        rot = _orthonormalize(rot)
    return make_pose(rot, pose_translation(curr) + delta_t * steps)

