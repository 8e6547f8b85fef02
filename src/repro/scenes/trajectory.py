"""Camera trajectories: orbits, dollies, head shakes and random walks.

Trajectory statistics drive SPARW's behaviour: the inter-frame pose delta
determines frame overlap (Fig. 7), disocclusion rate, and the warping-angle
distribution (Fig. 26).  The paper contrasts high-temporal-resolution capture
(30 FPS, small deltas — VR-like) with the sparse 1 FPS Tanks-and-Temples
sampling; Fig. 25 models that knob as a 30x larger orbit step per frame.

Beyond the paper's orbits, this module provides a family of deterministic
generators (dolly, VR head shake, seeded random walk) behind
the :func:`make_trajectory` registry, so the serving layer can mix
heterogeneous user motions from declarative workload specs.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass

import numpy as np

from ..geometry.transforms import look_at

__all__ = [
    "Trajectory", "orbit_trajectory", "dolly_trajectory",
    "headshake_trajectory", "random_walk_trajectory",
    "TRAJECTORY_KINDS", "make_trajectory", "trajectory_parameters",
]


@dataclass
class Trajectory:
    """A sequence of camera-to-world poses sampled at a fixed frame rate."""

    poses: list  # list of (4, 4) ndarray
    fps: float = 30.0
    name: str = "trajectory"

    def __len__(self) -> int:
        return len(self.poses)

    def __getitem__(self, idx):
        return self.poses[idx]


def orbit_trajectory(
    num_frames: int,
    radius: float = 3.2,
    height: float = 0.8,
    target=(0.0, 0.0, 0.0),
    degrees_per_frame: float = 0.5,
    start_angle_deg: float = 0.0,
    fps: float = 30.0,
) -> Trajectory:
    """Smooth orbit around ``target`` — the canonical VR-viewing motion.

    ``degrees_per_frame`` controls the inter-frame camera delta.  At 30 FPS a
    comfortable head-turn of ~15 deg/s gives 0.5 deg/frame, which produces
    the >98% frame overlap the paper measures on Synthetic-NeRF.
    """
    target = np.asarray(target, dtype=float)
    poses = []
    for i in range(num_frames):
        angle = np.radians(start_angle_deg + degrees_per_frame * i)
        eye = target + np.array([
            radius * np.cos(angle), height, radius * np.sin(angle)])
        poses.append(look_at(eye, target))
    return Trajectory(poses=poses, fps=fps, name=f"orbit_{degrees_per_frame}dpf")


def dolly_trajectory(
    num_frames: int,
    start_distance: float = 4.0,
    end_distance: float = 2.0,
    height: float = 0.8,
    target=(0.0, 0.0, 0.0),
    azimuth_deg: float = 0.0,
    fps: float = 30.0,
) -> Trajectory:
    """Straight push-in (or pull-out) toward ``target`` along one azimuth.

    Dolly moves stress SPARW differently from orbits: the warp field is
    mostly radial scaling, overlap stays high, but disocclusion concentrates
    at silhouette edges as parallax grows.
    """
    if num_frames < 1:
        raise ValueError("num_frames must be >= 1")
    target = np.asarray(target, dtype=float)
    angle = np.radians(azimuth_deg)
    direction = np.array([np.cos(angle), 0.0, np.sin(angle)])
    distances = np.linspace(start_distance, end_distance, num_frames)
    poses = [look_at(target + direction * d + np.array([0.0, height, 0.0]),
                     target)
             for d in distances]
    return Trajectory(poses=poses, fps=fps,
                      name=f"dolly_{start_distance:g}to{end_distance:g}")


def headshake_trajectory(
    num_frames: int,
    radius: float = 3.2,
    height: float = 0.8,
    target=(0.0, 0.0, 0.0),
    azimuth_deg: float = 0.0,
    yaw_amplitude_deg: float = 4.0,
    period_frames: float = 24.0,
    sway: float = 0.02,
    fps: float = 30.0,
) -> Trajectory:
    """VR-style head shake: a seated viewer scanning left and right.

    The eye stays (almost) put — a small sinusoidal sway models neck
    motion — while the gaze target oscillates laterally, producing the
    rotation-dominated pose deltas typical of head-mounted displays.
    """
    if num_frames < 1:
        raise ValueError("num_frames must be >= 1")
    if period_frames <= 0.0:
        raise ValueError("period_frames must be positive")
    target = np.asarray(target, dtype=float)
    angle = np.radians(azimuth_deg)
    back = np.array([np.cos(angle), 0.0, np.sin(angle)])
    lateral = np.array([-np.sin(angle), 0.0, np.cos(angle)])
    eye0 = target + back * radius + np.array([0.0, height, 0.0])
    # Gaze swing wide enough that yaw_amplitude_deg is the peak yaw angle.
    swing = radius * np.tan(np.radians(yaw_amplitude_deg))

    poses = []
    for i in range(num_frames):
        phase = 2.0 * np.pi * i / period_frames
        eye = eye0 + lateral * (sway * np.sin(phase))
        gaze = target + lateral * (swing * np.sin(phase))
        poses.append(look_at(eye, gaze))
    return Trajectory(poses=poses, fps=fps,
                      name=f"headshake_{yaw_amplitude_deg:g}deg")


def random_walk_trajectory(
    num_frames: int,
    seed: int = 0,
    target=(0.0, 0.0, 0.0),
    radius: float = 3.2,
    min_radius: float = 2.2,
    max_radius: float = 4.2,
    height: float = 0.8,
    step_scale: float = 0.04,
    fps: float = 30.0,
) -> Trajectory:
    """Seeded smooth random walk around ``target``, gaze locked on it.

    The eye performs a low-pass-filtered random walk constrained to a
    spherical shell ``[min_radius, max_radius]``, modelling an exploring
    user.  Fully deterministic in ``seed``.
    """
    if num_frames < 1:
        raise ValueError("num_frames must be >= 1")
    if not (0.0 < min_radius <= radius <= max_radius):
        raise ValueError("need 0 < min_radius <= radius <= max_radius")
    rng = np.random.default_rng(seed)
    target = np.asarray(target, dtype=float)

    steps = rng.normal(scale=step_scale, size=(num_frames, 3))
    # Low-pass the steps so consecutive poses stay close (real motion has
    # momentum; white-noise steps would thrash the warp).
    kernel = np.ones(5) / 5.0
    padded = np.concatenate([np.zeros((4, 3)), steps], axis=0)
    smooth = np.stack([np.convolve(padded[:, k], kernel, mode="valid")
                       for k in range(3)], axis=1)

    eye = target + np.array([radius, height, 0.0])
    poses = []
    for i in range(num_frames):
        eye = eye + smooth[i]
        offset = eye - target
        dist = float(np.linalg.norm(offset))
        clamped = float(np.clip(dist, min_radius, max_radius))
        if dist > 0.0 and clamped != dist:
            eye = target + offset * (clamped / dist)
        poses.append(look_at(eye, target))
    return Trajectory(poses=poses, fps=fps, name=f"walk_seed{seed}")


# Generator registry: each builder takes num_frames first; builders with a
# ``seed`` parameter receive it, deterministic ones never see it.  None of
# them accepts **kwargs, so unknown parameters fail loudly (and the
# workload layer can validate spec params against these signatures).
TRAJECTORY_KINDS = {
    "orbit": orbit_trajectory,
    "dolly": dolly_trajectory,
    "headshake": headshake_trajectory,
    "random_walk": random_walk_trajectory,
}


def trajectory_parameters(kind: str) -> dict:
    """Signature parameters of a registered generator (for validation)."""
    try:
        builder = TRAJECTORY_KINDS[kind]
    except KeyError:
        known = ", ".join(sorted(TRAJECTORY_KINDS))
        raise KeyError(f"unknown trajectory kind {kind!r}; "
                       f"one of: {known}") from None
    return dict(inspect.signature(builder).parameters)


def make_trajectory(kind: str, num_frames: int, seed: int = 0,
                    **params) -> Trajectory:
    """Build a trajectory by registry name — the workload layer's entry point.

    All generators are deterministic given ``(kind, num_frames, seed,
    params)``, which is what makes trajectory-derived cache keys (and the
    bit-parity of cached serving) possible.  Unknown ``params`` raise
    ``TypeError`` for every kind.
    """
    if "seed" in trajectory_parameters(kind):
        params["seed"] = seed
    return TRAJECTORY_KINDS[kind](num_frames, **params)

