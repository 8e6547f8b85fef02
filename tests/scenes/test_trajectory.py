"""Tests for camera trajectories."""

import numpy as np
import pytest
from instruments import frame_interval
from pose_helpers import is_rotation_matrix, rotation_angle_deg, translation_distance

from repro.geometry import pose_rotation, pose_translation
from repro.scenes import (
    TRAJECTORY_KINDS,
    dolly_trajectory,
    headshake_trajectory,
    make_trajectory,
    orbit_trajectory,
    random_walk_trajectory,
)
from repro.scenes.trajectory import (
    HEIGHT,
    WALK_MAX_RADIUS,
    WALK_MIN_RADIUS,
    trajectory_parameters,
)

RADIUS = 3.2


class TestOrbit:
    def test_length_and_fps(self):
        traj = orbit_trajectory(30, RADIUS)
        assert len(traj) == 30
        assert frame_interval(traj) == pytest.approx(1.0 / 30.0)

    def test_constant_radius(self):
        traj = orbit_trajectory(20, 3.0)
        for pose in traj.poses:
            position = pose_translation(pose)
            radial = np.linalg.norm([position[0], position[2]])
            assert radial == pytest.approx(3.0, abs=1e-9)
            assert position[1] == pytest.approx(HEIGHT)

    def test_pose_delta_matches_degrees_per_frame(self):
        traj = orbit_trajectory(10, RADIUS, degrees_per_frame=2.0)
        angle = rotation_angle_deg(pose_rotation(traj[0]),
                                   pose_rotation(traj[1]))
        # Rotation between consecutive look-at poses tracks the orbit step.
        assert angle == pytest.approx(2.0, abs=0.3)

    def test_all_poses_valid(self):
        traj = orbit_trajectory(15, RADIUS, degrees_per_frame=3.0)
        for pose in traj.poses:
            assert is_rotation_matrix(pose_rotation(pose), tol=1e-8)


GENERATOR_CASES = {
    "orbit": lambda n, seed: orbit_trajectory(n, RADIUS),
    "dolly": lambda n, seed: dolly_trajectory(n),
    "headshake": lambda n, seed: headshake_trajectory(n, RADIUS),
    "random_walk": lambda n, seed: random_walk_trajectory(n, RADIUS,
                                                          seed=seed),
}


class TestAllGenerators:
    """Shared invariants: determinism under seed, valid rotations."""

    @pytest.mark.parametrize("kind", sorted(GENERATOR_CASES))
    def test_deterministic_under_fixed_seed(self, kind):
        a = GENERATOR_CASES[kind](12, 3)
        b = GENERATOR_CASES[kind](12, 3)
        assert len(a) == len(b) == 12
        for pa, pb in zip(a.poses, b.poses):
            np.testing.assert_array_equal(pa, pb)

    @pytest.mark.parametrize("kind", sorted(GENERATOR_CASES))
    def test_all_rotations_valid(self, kind):
        traj = GENERATOR_CASES[kind](15, 1)
        for pose in traj.poses:
            assert pose.shape == (4, 4)
            assert is_rotation_matrix(pose_rotation(pose), tol=1e-8)
            np.testing.assert_allclose(pose[3], [0.0, 0.0, 0.0, 1.0])

    @pytest.mark.parametrize("kind", sorted(GENERATOR_CASES))
    def test_consecutive_poses_close(self, kind):
        traj = GENERATOR_CASES[kind](20, 2)
        for a, b in zip(traj.poses, traj.poses[1:]):
            assert translation_distance(a, b) < 0.3
            assert rotation_angle_deg(pose_rotation(a),
                                      pose_rotation(b)) < 10.0

    @pytest.mark.parametrize("kind", ["dolly", "orbit", "random_walk"])
    def test_gaze_stays_on_the_target(self, kind):
        # Every kind but the head shake keeps the scene centred, which is
        # what keeps consecutive frames overlapping for the warp.
        traj = GENERATOR_CASES[kind](15, 4)
        for pose in traj.poses:
            to_target = -pose_translation(pose)
            to_target /= np.linalg.norm(to_target)
            np.testing.assert_allclose(pose_rotation(pose)[:, 2], to_target,
                                       atol=1e-12)

    def test_registry_covers_every_generator(self):
        assert set(GENERATOR_CASES) == set(TRAJECTORY_KINDS)


class TestDolly:
    def test_moves_along_line_toward_target(self):
        traj = dolly_trajectory(10, start_distance=4.0, end_distance=2.0)
        d0 = np.linalg.norm(pose_translation(traj[0]) - [0, HEIGHT, 0])
        d_last = np.linalg.norm(pose_translation(traj[-1]) - [0, HEIGHT, 0])
        assert d0 == pytest.approx(4.0)
        assert d_last == pytest.approx(2.0)
        # Monotone push-in.
        dists = [np.linalg.norm(pose_translation(p) - [0, HEIGHT, 0])
                 for p in traj.poses]
        assert all(a > b for a, b in zip(dists, dists[1:]))


class TestHeadshake:
    def test_eye_stays_near_anchor(self):
        traj = headshake_trajectory(30, RADIUS)
        anchor = pose_translation(traj[0])
        assert np.linalg.norm(anchor - [RADIUS, HEIGHT, 0]) < 0.1
        for pose in traj.poses:
            assert np.linalg.norm(pose_translation(pose) - anchor) < 0.1

    def test_yaw_oscillates(self):
        traj = headshake_trajectory(48, RADIUS, yaw_amplitude_deg=5.0)
        # Max rotation from the first pose should approach the amplitude.
        angles = [rotation_angle_deg(pose_rotation(traj[0]),
                                     pose_rotation(p)) for p in traj.poses]
        assert 3.0 < max(angles) < 11.0


class TestRandomWalk:
    def test_different_seeds_differ(self):
        a = random_walk_trajectory(15, RADIUS, seed=1)
        b = random_walk_trajectory(15, RADIUS, seed=2)
        assert any(translation_distance(pa, pb) > 1e-6
                   for pa, pb in zip(a.poses, b.poses))

    def test_stays_in_shell(self):
        # Long enough for this seed's walk to reach both walls of the
        # shell, so the clamp runs on the way in and on the way out.
        traj = random_walk_trajectory(3000, RADIUS, seed=0)
        dists = np.array([np.linalg.norm(pose_translation(pose))
                          for pose in traj.poses])
        assert np.all(dists >= WALK_MIN_RADIUS - 1e-9)
        assert np.all(dists <= WALK_MAX_RADIUS + 1e-9)
        for wall in (WALK_MIN_RADIUS, WALK_MAX_RADIUS):
            assert np.any(np.abs(dists - wall) < 1e-9)


class TestMakeTrajectory:
    def test_dispatch_and_determinism(self):
        a = make_trajectory("random_walk", 6, RADIUS, seed=11)
        b = make_trajectory("random_walk", 6, RADIUS, seed=11)
        for pa, pb in zip(a.poses, b.poses):
            np.testing.assert_array_equal(pa, pb)

    def test_params_forwarded(self):
        traj = make_trajectory("orbit", 4, RADIUS, degrees_per_frame=3.0)
        angle = rotation_angle_deg(pose_rotation(traj[0]),
                                   pose_rotation(traj[1]))
        assert angle == pytest.approx(3.0, abs=0.4)

    def test_unknown_kind(self):
        with pytest.raises(KeyError, match="unknown trajectory"):
            make_trajectory("spiral", 5, RADIUS)

    def test_unknown_param_raises_for_every_kind(self):
        for kind in TRAJECTORY_KINDS:
            with pytest.raises(TypeError):
                make_trajectory(kind, 3, RADIUS, not_a_param=1.0)

    def test_parameters_name_each_generators_keywords(self):
        assert "degrees_per_frame" in trajectory_parameters("orbit")
        for kind in TRAJECTORY_KINDS:
            assert "num_frames" in trajectory_parameters(kind)

    def test_parameters_of_unknown_kind(self):
        with pytest.raises(KeyError, match="orbit"):
            trajectory_parameters("spiral")
