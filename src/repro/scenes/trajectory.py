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


# The shape every generator shares: the eye HEIGHT above the orbit plane,
# gaze on the origin, sampled at FPS.  The eye's distance from the origin
# is the experiment config's ``orbit_radius``, which :func:`make_trajectory`
# passes on; workload specs vary only the motion itself (orbit step and
# start, dolly end, head-shake yaw, walk seed).
HEIGHT = 0.8
FPS = 30.0
# Head shake: the neck's sinusoidal sway and the scan period.
SHAKE_SWAY = 0.02
SHAKE_PERIOD_FRAMES = 24.0
# Random walk: the spherical shell the eye stays in, and the scale of its
# per-frame steps.
WALK_MIN_RADIUS, WALK_MAX_RADIUS = 2.2, 4.2
WALK_STEP = 0.04

ORIGIN = np.zeros(3)


@dataclass
class Trajectory:
    """A sequence of camera-to-world poses sampled at a fixed frame rate."""

    poses: list  # list of (4, 4) ndarray
    fps: float = FPS
    name: str = "trajectory"

    def __len__(self) -> int:
        return len(self.poses)

    def __getitem__(self, idx):
        return self.poses[idx]


def orbit_trajectory(
    num_frames: int,
    radius: float,
    degrees_per_frame: float = 0.5,
    start_angle_deg: float = 0.0,
) -> Trajectory:
    """Smooth orbit around the origin — the canonical VR-viewing motion.

    ``degrees_per_frame`` controls the inter-frame camera delta.  At 30 FPS a
    comfortable head-turn of ~15 deg/s gives 0.5 deg/frame, which produces
    the >98% frame overlap the paper measures on Synthetic-NeRF.
    """
    poses = []
    for i in range(num_frames):
        angle = np.radians(start_angle_deg + degrees_per_frame * i)
        eye = np.array([radius * np.cos(angle), HEIGHT, radius * np.sin(angle)])
        poses.append(look_at(eye, ORIGIN))
    return Trajectory(poses=poses, name=f"orbit_{degrees_per_frame}dpf")


def dolly_trajectory(num_frames: int, start_distance: float = 4.0,
                     end_distance: float = 2.0) -> Trajectory:
    """Straight push-in (or pull-out) toward the origin along +x.

    Dolly moves stress SPARW differently from orbits: the warp field is
    mostly radial scaling, overlap stays high, but disocclusion concentrates
    at silhouette edges as parallax grows.
    """
    if num_frames < 1:
        raise ValueError("num_frames must be >= 1")
    distances = np.linspace(start_distance, end_distance, num_frames)
    poses = [look_at(np.array([d, HEIGHT, 0.0]), ORIGIN) for d in distances]
    return Trajectory(poses=poses,
                      name=f"dolly_{start_distance:g}to{end_distance:g}")


def headshake_trajectory(num_frames: int, radius: float,
                         yaw_amplitude_deg: float = 4.0) -> Trajectory:
    """VR-style head shake: a seated viewer scanning left and right.

    The eye stays (almost) put on the +x axis — a SHAKE_SWAY sinusoidal
    sway models neck motion — while the gaze target oscillates laterally
    with a ``yaw_amplitude_deg`` peak yaw and a SHAKE_PERIOD_FRAMES period,
    producing the rotation-dominated pose deltas typical of head-mounted
    displays.
    """
    if num_frames < 1:
        raise ValueError("num_frames must be >= 1")
    lateral = np.array([0.0, 0.0, 1.0])
    eye0 = np.array([radius, HEIGHT, 0.0])
    # Gaze swing wide enough that yaw_amplitude_deg is the peak yaw angle.
    swing = radius * np.tan(np.radians(yaw_amplitude_deg))

    poses = []
    for i in range(num_frames):
        wave = np.sin(2.0 * np.pi * i / SHAKE_PERIOD_FRAMES)
        eye = eye0 + lateral * (SHAKE_SWAY * wave)
        poses.append(look_at(eye, lateral * (swing * wave)))
    return Trajectory(poses=poses,
                      name=f"headshake_{yaw_amplitude_deg:g}deg")


def random_walk_trajectory(num_frames: int, radius: float,
                           seed: int = 0) -> Trajectory:
    """Seeded smooth random walk around the origin, gaze locked on it.

    The eye starts ``radius`` out on +x and performs a low-pass-filtered
    random walk constrained to the spherical shell ``[WALK_MIN_RADIUS,
    WALK_MAX_RADIUS]``, modelling an exploring user.  Fully deterministic
    in ``seed``.
    """
    if num_frames < 1:
        raise ValueError("num_frames must be >= 1")
    rng = np.random.default_rng(seed)
    steps = rng.normal(scale=WALK_STEP, size=(num_frames, 3))
    # Low-pass the steps so consecutive poses stay close (real motion has
    # momentum; white-noise steps would thrash the warp).
    kernel = np.ones(5) / 5.0
    padded = np.concatenate([np.zeros((4, 3)), steps], axis=0)
    smooth = np.stack([np.convolve(padded[:, k], kernel, mode="valid")
                       for k in range(3)], axis=1)

    eye = np.array([radius, HEIGHT, 0.0])
    poses = []
    for i in range(num_frames):
        eye = eye + smooth[i]
        dist = float(np.linalg.norm(eye))
        clamped = float(np.clip(dist, WALK_MIN_RADIUS, WALK_MAX_RADIUS))
        if dist > 0.0 and clamped != dist:
            eye = eye * (clamped / dist)
        poses.append(look_at(eye, ORIGIN))
    return Trajectory(poses=poses, name=f"walk_seed{seed}")


# Generator registry: each builder takes num_frames first; builders with a
# ``radius`` or ``seed`` parameter receive it, the others never see it.
# None of them accepts **kwargs, so unknown parameters fail loudly (and the
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


def make_trajectory(kind: str, num_frames: int, radius: float, seed: int = 0,
                    **params) -> Trajectory:
    """Build a trajectory by registry name — the workload layer's entry point.

    All generators are deterministic given ``(kind, num_frames, radius,
    seed, params)``, which is what makes trajectory-derived cache keys (and
    the bit-parity of cached serving) possible.  Unknown ``params`` raise
    ``TypeError`` for every kind.
    """
    accepted = trajectory_parameters(kind)
    if "radius" in accepted:
        params["radius"] = radius
    if "seed" in accepted:
        params["seed"] = seed
    return TRAJECTORY_KINDS[kind](num_frames, **params)
