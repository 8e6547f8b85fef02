"""Tests for the pinhole camera model."""

import numpy as np
import pytest

from repro.geometry import Intrinsics, PinholeCamera, look_at
from repro.geometry.camera import (_DIR_GRID_CACHE, _DIR_GRID_CACHE_MAX,
                                   clear_dir_grid_cache)


@pytest.fixture
def camera():
    return PinholeCamera(Intrinsics.from_fov(64, 48, 60.0),
                         look_at([0.0, 0.0, -4.0], [0.0, 0.0, 0.0]))


class TestIntrinsics:
    def test_from_fov_focal_length(self):
        intr = Intrinsics.from_fov(100, 100, 90.0)
        assert intr.fx == pytest.approx(50.0)
        assert intr.cx == pytest.approx(50.0)

    def test_scaled_halves_everything(self):
        intr = Intrinsics.from_fov(64, 64, 45.0)
        half = intr.scaled(0.5)
        assert half.width == 32 and half.height == 32
        assert half.fx == pytest.approx(intr.fx / 2)
        assert half.cx == pytest.approx(intr.cx / 2)

    def test_from_fov_square_pixels_centred_principal_point(self):
        intr = Intrinsics.from_fov(64, 48, 60.0)
        assert intr.fy == intr.fx
        assert (intr.cx, intr.cy) == (32.0, 24.0)
        # The horizontal half-angle at the image edge is the half-fov.
        assert np.degrees(np.arctan(intr.cx / intr.fx)) == pytest.approx(30.0)

    def test_scaled_keeps_at_least_one_pixel(self):
        tiny = Intrinsics.from_fov(4, 2, 45.0).scaled(0.1)
        assert (tiny.width, tiny.height) == (1, 1)


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

    def test_pixel_centre_rays_match_generate_rays(self, camera):
        _, full = camera.generate_rays()
        v, u = np.mgrid[0:camera.height, 0:camera.width]
        _, dirs = camera.rays_for_pixels(u + 0.5, v + 0.5)
        np.testing.assert_allclose(dirs, full, atol=1e-12)


class TestDirectionLattice:
    def test_lattice_is_memoised_and_read_only(self, camera):
        clear_dir_grid_cache()
        camera.generate_rays()
        camera.with_pose(np.eye(4)).generate_rays()
        assert list(_DIR_GRID_CACHE) == [camera.intrinsics]
        grid = _DIR_GRID_CACHE[camera.intrinsics]
        assert not grid.flags.writeable
        clear_dir_grid_cache()
        assert not _DIR_GRID_CACHE

    def test_cache_is_bounded_and_evicts_oldest_first(self):
        clear_dir_grid_cache()
        sizes = range(1, _DIR_GRID_CACHE_MAX + 6)
        for size in sizes:
            PinholeCamera(Intrinsics.from_fov(size, 1, 45.0)).generate_rays()
        assert len(_DIR_GRID_CACHE) == _DIR_GRID_CACHE_MAX
        assert [intr.width for intr in _DIR_GRID_CACHE] == list(sizes)[5:]
        clear_dir_grid_cache()


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
