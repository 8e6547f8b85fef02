"""Tests for SE(3) transforms and pose utilities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pose_helpers import (
    is_rotation_matrix,
    rotation_angle_deg,
    rotation_x,
    rotation_y,
    rotation_z,
    translation_distance,
)

from repro.geometry import (
    extrapolate_pose,
    invert_pose,
    look_at,
    make_pose,
    pose_rotation,
    pose_translation,
    relative_pose,
    rotation_from_axis_angle,
)

angles = st.floats(min_value=-np.pi, max_value=np.pi,
                   allow_nan=False, allow_infinity=False)
coords = st.floats(min_value=-10.0, max_value=10.0,
                   allow_nan=False, allow_infinity=False)


class TestBasicRotations:
    @pytest.mark.parametrize("factory", [rotation_x, rotation_y, rotation_z])
    def test_zero_angle_is_identity(self, factory):
        np.testing.assert_allclose(factory(0.0), np.eye(3), atol=1e-12)

    @pytest.mark.parametrize("factory", [rotation_x, rotation_y, rotation_z])
    def test_is_valid_rotation(self, factory):
        assert is_rotation_matrix(factory(0.7))

    def test_rotation_x_maps_y_to_z(self):
        rot = rotation_x(np.pi / 2)
        np.testing.assert_allclose(rot @ [0, 1, 0], [0, 0, 1], atol=1e-12)

    def test_rotation_y_maps_z_to_x(self):
        rot = rotation_y(np.pi / 2)
        np.testing.assert_allclose(rot @ [0, 0, 1], [1, 0, 0], atol=1e-12)

    def test_rotation_z_maps_x_to_y(self):
        rot = rotation_z(np.pi / 2)
        np.testing.assert_allclose(rot @ [1, 0, 0], [0, 1, 0], atol=1e-12)


class TestAxisAngle:
    def test_matches_principal_axes(self):
        np.testing.assert_allclose(
            rotation_from_axis_angle([1, 0, 0], 0.3), rotation_x(0.3),
            atol=1e-12)
        np.testing.assert_allclose(
            rotation_from_axis_angle([0, 1, 0], -0.4), rotation_y(-0.4),
            atol=1e-12)

    def test_zero_axis_raises(self):
        with pytest.raises(ValueError):
            rotation_from_axis_angle([0.0, 0.0, 0.0], 1.0)

    def test_axis_is_invariant(self):
        axis = np.array([1.0, 2.0, -0.5])
        rot = rotation_from_axis_angle(axis, 1.1)
        np.testing.assert_allclose(rot @ axis, axis, atol=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(angle=angles)
    def test_always_valid_rotation(self, angle):
        rot = rotation_from_axis_angle([0.3, -0.7, 0.64], angle)
        assert is_rotation_matrix(rot, tol=1e-8)


class TestPoseAlgebra:
    def test_invert_roundtrip(self):
        pose = make_pose(rotation_y(0.8) @ rotation_x(-0.2), [1.0, 2.0, 3.0])
        np.testing.assert_allclose(pose @ invert_pose(pose), np.eye(4),
                                   atol=1e-12)

    def test_relative_pose_identity_when_same(self):
        pose = make_pose(rotation_z(0.5), [0.5, -1.0, 2.0])
        np.testing.assert_allclose(relative_pose(pose, pose), np.eye(4),
                                   atol=1e-12)

    def test_relative_pose_maps_src_point_to_dst_frame(self):
        src = look_at([3.0, 0.0, 0.0], [0.0, 0.0, 0.0])
        dst = look_at([0.0, 0.0, 3.0], [0.0, 0.0, 0.0])
        rel = relative_pose(src, dst)
        point_src = np.array([0.0, 0.0, 3.0, 1.0])  # scene origin in src frame
        point_dst = rel @ point_src
        np.testing.assert_allclose(point_dst[:3], [0.0, 0.0, 3.0], atol=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(x=coords, y=coords, z=coords, angle=angles)
    def test_inverse_is_exact(self, x, y, z, angle):
        pose = make_pose(rotation_from_axis_angle([1.0, 1.0, 0.2], angle),
                         [x, y, z])
        np.testing.assert_allclose(invert_pose(invert_pose(pose)), pose,
                                   atol=1e-9)


class TestLookAt:
    def test_camera_faces_target(self):
        pose = look_at([0.0, 0.0, -5.0], [0.0, 0.0, 0.0])
        forward = pose[:3, 2]
        np.testing.assert_allclose(forward, [0.0, 0.0, 1.0], atol=1e-12)

    def test_position_stored_in_translation(self):
        eye = np.array([1.0, 2.0, 3.0])
        pose = look_at(eye, [0.0, 0.0, 0.0])
        np.testing.assert_allclose(pose_translation(pose), eye)

    def test_rotation_block_is_valid(self):
        pose = look_at([2.0, 1.0, -1.0], [0.0, 0.5, 0.0])
        assert is_rotation_matrix(pose_rotation(pose), tol=1e-9)

    def test_degenerate_up_recovers(self):
        pose = look_at([0.0, 5.0, 0.0], [0.0, 0.0, 0.0])  # looking along -y
        assert is_rotation_matrix(pose_rotation(pose), tol=1e-9)

    def test_coincident_eye_target_raises(self):
        with pytest.raises(ValueError):
            look_at([1.0, 1.0, 1.0], [1.0, 1.0, 1.0])


class TestMetrics:
    def test_rotation_angle_of_identity(self):
        assert rotation_angle_deg(np.eye(3), np.eye(3)) == pytest.approx(0.0)

    def test_rotation_angle_known(self):
        assert rotation_angle_deg(np.eye(3), rotation_y(np.radians(30))) == (
            pytest.approx(30.0, abs=1e-9))

    def test_translation_distance(self):
        a = make_pose(np.eye(3), [0.0, 0.0, 0.0])
        b = make_pose(np.eye(3), [3.0, 4.0, 0.0])
        assert translation_distance(a, b) == pytest.approx(5.0)


class TestExtrapolation:
    def test_linear_translation(self):
        prev = make_pose(np.eye(3), [0.0, 0.0, 0.0])
        curr = make_pose(np.eye(3), [1.0, 0.0, 0.0])
        out = extrapolate_pose(prev, curr, steps=2.0)
        np.testing.assert_allclose(pose_translation(out), [3.0, 0.0, 0.0])

    def test_rotation_continues(self):
        prev = make_pose(rotation_y(0.0), [0.0, 0.0, 0.0])
        curr = make_pose(rotation_y(0.1), [0.0, 0.0, 0.0])
        out = extrapolate_pose(prev, curr, steps=3.0)
        assert rotation_angle_deg(pose_rotation(curr), pose_rotation(out)) == (
            pytest.approx(np.degrees(0.3), abs=1e-6))

    def test_stationary_camera_stays(self):
        pose = look_at([3.0, 1.0, 0.0], [0.0, 0.0, 0.0])
        out = extrapolate_pose(pose, pose, steps=5.0)
        np.testing.assert_allclose(out, pose, atol=1e-9)

    def test_result_is_valid_pose(self):
        prev = look_at([3.0, 1.0, 0.0], [0.0, 0.0, 0.0])
        curr = look_at([2.9, 1.05, 0.3], [0.0, 0.0, 0.0])
        out = extrapolate_pose(prev, curr, steps=8.0)
        assert is_rotation_matrix(pose_rotation(out), tol=1e-7)

    def test_fractional_steps(self):
        prev = make_pose(np.eye(3), [0.0, 0.0, 0.0])
        curr = make_pose(np.eye(3), [2.0, 0.0, 0.0])
        out = extrapolate_pose(prev, curr, steps=0.5)
        np.testing.assert_allclose(pose_translation(out), [3.0, 0.0, 0.0])

