"""Tests for depth-map <-> point-cloud conversion (SPARW step 1)."""

import numpy as np
import pytest

from repro.geometry import (
    Intrinsics,
    PinholeCamera,
    depth_to_points,
    look_at,
    transform_points,
)


@pytest.fixture
def intrinsics():
    return Intrinsics.from_fov(16, 12, 60.0)


class TestDepthToPoints:
    def test_shape(self, intrinsics):
        depth = np.full((12, 16), 2.0)
        points = depth_to_points(depth, intrinsics)
        assert points.shape == (12 * 16, 3)

    def test_z_equals_depth(self, intrinsics):
        depth = np.full((12, 16), 3.5)
        points = depth_to_points(depth, intrinsics)
        np.testing.assert_allclose(points[:, 2], 3.5)

    def test_principal_point_maps_to_axis(self, intrinsics):
        """The pixel at the principal point lifts onto the optical axis."""
        depth = np.full((12, 16), 2.0)
        points = depth_to_points(depth, intrinsics).reshape(12, 16, 3)
        # cx=8, cy=6 -> pixel centres at 7.5/8.5 straddle it; interpolate.
        near_axis = 0.5 * (points[5, 7] + points[6, 8])
        assert abs(near_axis[0]) < 0.2
        assert abs(near_axis[1]) < 0.2

    def test_roundtrip_through_projection(self, intrinsics):
        """Lift then reproject must return each pixel's own coordinates."""
        camera = PinholeCamera(intrinsics)  # identity pose: camera == world
        rng = np.random.default_rng(0)
        depth = rng.uniform(1.0, 5.0, size=(12, 16))
        points = depth_to_points(depth, intrinsics)
        uv, z = camera.project_points(points)
        u, v = np.meshgrid(np.arange(16) + 0.5, np.arange(12) + 0.5)
        np.testing.assert_allclose(uv[:, 0], u.reshape(-1), atol=1e-9)
        np.testing.assert_allclose(uv[:, 1], v.reshape(-1), atol=1e-9)
        np.testing.assert_allclose(z, depth.reshape(-1), atol=1e-12)

    def test_infinite_depth_gives_nonfinite_points(self, intrinsics):
        depth = np.full((12, 16), np.inf)
        points = depth_to_points(depth, intrinsics)
        assert not np.isfinite(points[:, 2]).any()


class TestTransformPoints:
    def test_identity(self):
        points = np.random.default_rng(1).normal(size=(10, 3))
        np.testing.assert_allclose(transform_points(points, np.eye(4)), points)

    def test_translation(self):
        points = np.zeros((3, 3))
        t = np.eye(4)
        t[:3, 3] = [1.0, 2.0, 3.0]
        np.testing.assert_allclose(transform_points(points, t),
                                   np.broadcast_to([1.0, 2.0, 3.0], (3, 3)))

    def test_composition_matches_sequential(self):
        rng = np.random.default_rng(2)
        points = rng.normal(size=(5, 3))
        a = look_at([1.0, 0.5, 0.0], [0.0, 0.0, 1.0])
        b = look_at([-1.0, 0.2, 0.3], [0.0, 1.0, 0.0])
        both = transform_points(transform_points(points, a), b)
        np.testing.assert_allclose(transform_points(points, b @ a), both,
                                   atol=1e-9)

