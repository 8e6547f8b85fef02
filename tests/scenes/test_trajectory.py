"""Tests for camera trajectories."""

import numpy as np
import pytest
from pose_helpers import is_rotation_matrix, rotation_angle_deg, translation_distance

from repro.geometry import pose_rotation, pose_translation
from repro.scenes import (
    TRAJECTORY_KINDS,
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
from repro.scenes.trajectory import trajectory_parameters


class TestOrbit:
    def test_length_and_fps(self):
        traj = orbit_trajectory(30, fps=30.0)
        assert len(traj) == 30
        assert traj.frame_interval == pytest.approx(1.0 / 30.0)

    def test_constant_radius(self):
        traj = orbit_trajectory(20, radius=3.0, height=1.0, target=(0, 0, 0))
        for pose in traj.poses:
            position = pose_translation(pose)
            radial = np.linalg.norm([position[0], position[2]])
            assert radial == pytest.approx(3.0, abs=1e-9)
            assert position[1] == pytest.approx(1.0)

    def test_pose_delta_matches_degrees_per_frame(self):
        traj = orbit_trajectory(10, degrees_per_frame=2.0)
        angle = rotation_angle_deg(pose_rotation(traj[0]),
                                   pose_rotation(traj[1]))
        # Rotation between consecutive look-at poses tracks the orbit step.
        assert angle == pytest.approx(2.0, abs=0.3)

    def test_all_poses_valid(self):
        traj = orbit_trajectory(15, degrees_per_frame=3.0)
        for pose in traj.poses:
            assert is_rotation_matrix(pose_rotation(pose), tol=1e-8)


class TestHandheld:
    def test_deterministic_in_seed(self):
        a = handheld_trajectory(10, seed=5)
        b = handheld_trajectory(10, seed=5)
        for pa, pb in zip(a.poses, b.poses):
            np.testing.assert_allclose(pa, pb)

    def test_jitter_stays_small(self):
        smooth = orbit_trajectory(20)
        shaky = handheld_trajectory(20, jitter_translation=0.01)
        for ps, ph in zip(smooth.poses, shaky.poses):
            assert translation_distance(ps, ph) < 0.25

    def test_consecutive_poses_close(self):
        traj = handheld_trajectory(20, degrees_per_frame=0.5)
        for a, b in zip(traj.poses, traj.poses[1:]):
            assert translation_distance(a, b) < 0.2


GENERATOR_CASES = {
    "orbit": lambda n, seed: orbit_trajectory(n),
    "handheld": lambda n, seed: handheld_trajectory(n, seed=seed),
    "dolly": lambda n, seed: dolly_trajectory(n),
    "headshake": lambda n, seed: headshake_trajectory(n),
    "random_walk": lambda n, seed: random_walk_trajectory(n, seed=seed),
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

    def test_registry_covers_every_generator(self):
        assert set(GENERATOR_CASES) | {"replay"} == set(TRAJECTORY_KINDS)


class TestDolly:
    def test_moves_along_line_toward_target(self):
        traj = dolly_trajectory(10, start_distance=4.0, end_distance=2.0,
                                height=0.5)
        d0 = np.linalg.norm(pose_translation(traj[0]) - [0, 0.5, 0])
        d_last = np.linalg.norm(pose_translation(traj[-1]) - [0, 0.5, 0])
        assert d0 == pytest.approx(4.0)
        assert d_last == pytest.approx(2.0)
        # Monotone push-in.
        dists = [np.linalg.norm(pose_translation(p) - [0, 0.5, 0])
                 for p in traj.poses]
        assert all(a > b for a, b in zip(dists, dists[1:]))


class TestHeadshake:
    def test_eye_stays_near_anchor(self):
        traj = headshake_trajectory(30, radius=3.0, sway=0.02)
        anchor = pose_translation(traj[0])
        for pose in traj.poses:
            assert np.linalg.norm(pose_translation(pose) - anchor) < 0.1

    def test_yaw_oscillates(self):
        traj = headshake_trajectory(48, yaw_amplitude_deg=5.0,
                                    period_frames=24.0)
        # Max rotation from the first pose should approach the amplitude.
        angles = [rotation_angle_deg(pose_rotation(traj[0]),
                                     pose_rotation(p)) for p in traj.poses]
        assert 3.0 < max(angles) < 11.0


class TestRandomWalk:
    def test_different_seeds_differ(self):
        a = random_walk_trajectory(15, seed=1)
        b = random_walk_trajectory(15, seed=2)
        assert any(translation_distance(pa, pb) > 1e-6
                   for pa, pb in zip(a.poses, b.poses))

    def test_stays_in_shell(self):
        traj = random_walk_trajectory(60, seed=9, min_radius=2.2,
                                      max_radius=4.2, step_scale=0.3)
        for pose in traj.poses:
            dist = np.linalg.norm(pose_translation(pose))
            assert 2.2 - 1e-9 <= dist <= 4.2 + 1e-9

    def test_invalid_shell_rejected(self):
        with pytest.raises(ValueError):
            random_walk_trajectory(5, radius=5.0, max_radius=4.0)


class TestReplay:
    def test_pose_log_round_trip_exact(self, tmp_path):
        traj = random_walk_trajectory(10, seed=4, fps=24.0)
        path = save_pose_log(traj, tmp_path / "log.json")
        loaded = load_pose_log(path)
        assert loaded.fps == traj.fps
        assert loaded.name == traj.name
        assert len(loaded) == len(traj)
        for pa, pb in zip(traj.poses, loaded.poses):
            np.testing.assert_array_equal(pa, pb)

    def test_make_trajectory_replay_from_log(self, tmp_path):
        traj = orbit_trajectory(8)
        path = save_pose_log(traj, tmp_path / "log.json")
        replayed = make_trajectory("replay", 5, pose_log=str(path))
        assert len(replayed) == 5
        np.testing.assert_array_equal(replayed[4], traj[4])

    def test_replay_requires_enough_poses(self, tmp_path):
        path = save_pose_log(orbit_trajectory(3), tmp_path / "log.json")
        with pytest.raises(ValueError):
            make_trajectory("replay", 4, pose_log=str(path))

    def test_replay_requires_pose_log(self):
        with pytest.raises(ValueError):
            make_trajectory("replay", 4)

    def test_rejects_bad_pose_shape(self):
        with pytest.raises(ValueError):
            replay_trajectory([np.eye(3)])


class TestMakeTrajectory:
    def test_dispatch_and_determinism(self):
        a = make_trajectory("random_walk", 6, seed=11)
        b = make_trajectory("random_walk", 6, seed=11)
        for pa, pb in zip(a.poses, b.poses):
            np.testing.assert_array_equal(pa, pb)

    def test_params_forwarded(self):
        traj = make_trajectory("orbit", 4, degrees_per_frame=3.0)
        angle = rotation_angle_deg(pose_rotation(traj[0]),
                                   pose_rotation(traj[1]))
        assert angle == pytest.approx(3.0, abs=0.4)

    def test_unknown_kind(self):
        with pytest.raises(KeyError, match="unknown trajectory"):
            make_trajectory("spiral", 5)

    def test_unknown_param_raises_for_every_kind(self, tmp_path):
        path = save_pose_log(orbit_trajectory(4), tmp_path / "log.json")
        for kind in TRAJECTORY_KINDS:
            params = {"pose_log": str(path)} if kind == "replay" else {}
            with pytest.raises(TypeError):
                make_trajectory(kind, 3, not_a_param=1.0, **params)

    def test_parameters_name_each_generators_keywords(self):
        assert "degrees_per_frame" in trajectory_parameters("orbit")
        assert "pose_log" in trajectory_parameters("replay")
        for kind in TRAJECTORY_KINDS:
            assert "num_frames" in trajectory_parameters(kind)

    def test_parameters_of_unknown_kind(self):
        with pytest.raises(KeyError, match="orbit"):
            trajectory_parameters("spiral")
