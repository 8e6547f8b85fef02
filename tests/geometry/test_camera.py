"""Tests for the pinhole camera model."""

import numpy as np
import pytest

from repro.geometry import Intrinsics, PinholeCamera, look_at


@pytest.fixture
def camera():
    return PinholeCamera(Intrinsics.from_fov(64, 48, 60.0),
                         look_at([0.0, 0.0, -4.0], [0.0, 0.0, 0.0]))


class TestIntrinsics:
    def test_from_fov_focal_length(self):
        intr = Intrinsics.from_fov(100, 100, 90.0)
        assert intr.fx == pytest.approx(50.0)
        assert intr.cx == pytest.approx(50.0)

    def test_matrix_layout(self):
        intr = Intrinsics(width=10, height=8, fx=5.0, fy=6.0, cx=5.0, cy=4.0)
        k = intr.matrix()
        assert k[0, 0] == 5.0 and k[1, 1] == 6.0
        assert k[0, 2] == 5.0 and k[1, 2] == 4.0
        assert k[2, 2] == 1.0

    def test_scaled_halves_everything(self):
        intr = Intrinsics.from_fov(64, 64, 45.0)
        half = intr.scaled(0.5)
        assert half.width == 32 and half.height == 32
        assert half.fx == pytest.approx(intr.fx / 2)
        assert half.cx == pytest.approx(intr.cx / 2)

    def test_num_pixels(self):
        assert Intrinsics.from_fov(10, 20, 45.0).num_pixels == 200


class TestRays:
    def test_center_pixel_ray_points_forward(self, camera):
        intr = camera.intrinsics
        _, dirs = camera.rays_for_pixels(np.array([intr.cx]),
                                         np.array([intr.cy]))
        forward = camera.c2w[:3, 2]
        np.testing.assert_allclose(dirs[0], forward, atol=1e-9)

    def test_directions_are_unit(self, camera):
        _, dirs = camera.generate_rays()
        norms = np.linalg.norm(dirs, axis=-1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)

    def test_origins_are_camera_position(self, camera):
        origins, _ = camera.generate_rays()
        np.testing.assert_allclose(origins,
                                   np.broadcast_to(camera.position,
                                                   origins.shape))

    def test_generate_rays_shape(self, camera):
        origins, dirs = camera.generate_rays()
        assert origins.shape == (48, 64, 3)
        assert dirs.shape == (48, 64, 3)


class TestProjection:
    def test_project_unprojects_rays(self, camera):
        """Points along pixel rays must project back to their pixels."""
        u = np.array([3.5, 20.5, 60.5])
        v = np.array([2.5, 30.5, 40.5])
        origins, dirs = camera.rays_for_pixels(u, v)
        points = origins + 2.7 * dirs
        uv, depth = camera.project_points(points)
        np.testing.assert_allclose(uv[:, 0], u, atol=1e-6)
        np.testing.assert_allclose(uv[:, 1], v, atol=1e-6)
        assert (depth > 0).all()

    def test_point_behind_camera_negative_depth(self, camera):
        behind = camera.position - 3.0 * camera.c2w[:3, 2]
        _, depth = camera.project_points(behind[None])
        assert depth[0] < 0


class TestPoseHandling:
    def test_w2c_inverts_c2w(self, camera):
        np.testing.assert_allclose(camera.w2c @ camera.c2w, np.eye(4),
                                   atol=1e-12)

    def test_with_pose_keeps_intrinsics(self, camera):
        moved = camera.with_pose(np.eye(4))
        assert moved.intrinsics == camera.intrinsics
        np.testing.assert_allclose(moved.c2w, np.eye(4))

    def test_scaled_keeps_pose(self, camera):
        half = camera.scaled(0.5)
        np.testing.assert_allclose(half.c2w, camera.c2w)
        assert half.width == camera.width // 2

    def test_invalid_pose_shape_rejected(self):
        with pytest.raises(ValueError):
            PinholeCamera(Intrinsics.from_fov(8, 8, 45.0),
                          np.eye(3))
