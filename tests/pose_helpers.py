"""Pose instruments for the tests: axis rotations and pose comparisons.

Nothing in the library builds or compares poses this way; the tests use
these to build test poses and to check generated ones.  Import by bare
name (``from pose_helpers import rotation_y``), like
``reference_kernels``.
"""

import numpy as np

from repro.geometry import pose_translation


def rotation_x(angle_rad: float) -> np.ndarray:
    """Rotation about the x axis by ``angle_rad`` radians."""
    c, s = np.cos(angle_rad), np.sin(angle_rad)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def rotation_y(angle_rad: float) -> np.ndarray:
    """Rotation about the y axis by ``angle_rad`` radians."""
    c, s = np.cos(angle_rad), np.sin(angle_rad)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def rotation_z(angle_rad: float) -> np.ndarray:
    """Rotation about the z axis by ``angle_rad`` radians."""
    c, s = np.cos(angle_rad), np.sin(angle_rad)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def rotation_angle_deg(rot_a: np.ndarray, rot_b: np.ndarray) -> float:
    """Geodesic angle in degrees between two rotation matrices."""
    rel = rot_a.T @ rot_b
    cos = (np.trace(rel) - 1.0) / 2.0
    cos = np.clip(cos, -1.0, 1.0)
    return float(np.degrees(np.arccos(cos)))


def translation_distance(pose_a: np.ndarray, pose_b: np.ndarray) -> float:
    """Euclidean distance between the camera centres of two poses."""
    return float(np.linalg.norm(pose_translation(pose_a) - pose_translation(pose_b)))


def is_rotation_matrix(rotation: np.ndarray, tol: float = 1e-6) -> bool:
    """True when ``rotation`` is orthonormal with determinant +1."""
    if rotation.shape != (3, 3):
        return False
    identity_err = np.abs(rotation @ rotation.T - np.eye(3)).max()
    return bool(identity_err < tol and abs(np.linalg.det(rotation) - 1.0) < tol)
