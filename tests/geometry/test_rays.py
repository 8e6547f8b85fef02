"""Tests for camera ray bundles and AABB intersection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Intrinsics, PinholeCamera, intersect_aabb, look_at

BOX_MIN = np.array([-1.0, -1.0, -1.0])
BOX_MAX = np.array([1.0, 1.0, 1.0])


class TestIntersectAABB:
    def test_ray_through_center_hits(self):
        t_near, t_far, hit = intersect_aabb(
            np.array([[0.0, 0.0, -5.0]]), np.array([[0.0, 0.0, 1.0]]),
            BOX_MIN, BOX_MAX)
        assert hit[0]
        assert t_near[0] == pytest.approx(4.0)
        assert t_far[0] == pytest.approx(6.0)

    def test_ray_missing_box(self):
        _, _, hit = intersect_aabb(
            np.array([[0.0, 5.0, -5.0]]), np.array([[0.0, 0.0, 1.0]]),
            BOX_MIN, BOX_MAX)
        assert not hit[0]

    def test_ray_starting_inside(self):
        t_near, t_far, hit = intersect_aabb(
            np.array([[0.0, 0.0, 0.0]]), np.array([[1.0, 0.0, 0.0]]),
            BOX_MIN, BOX_MAX, near=0.0)
        assert hit[0]
        assert t_near[0] == pytest.approx(0.0)
        assert t_far[0] == pytest.approx(1.0)

    def test_axis_aligned_ray_with_zero_components(self):
        """Zero direction components must not poison the slab test."""
        t_near, t_far, hit = intersect_aabb(
            np.array([[0.5, 0.5, -3.0]]), np.array([[0.0, 0.0, 1.0]]),
            BOX_MIN, BOX_MAX)
        assert hit[0]
        assert t_near[0] == pytest.approx(2.0)

    def test_zero_component_outside_slab_misses(self):
        _, _, hit = intersect_aabb(
            np.array([[5.0, 0.0, -3.0]]), np.array([[0.0, 0.0, 1.0]]),
            BOX_MIN, BOX_MAX)
        assert not hit[0]

    def test_far_clip(self):
        _, _, hit = intersect_aabb(
            np.array([[0.0, 0.0, -5.0]]), np.array([[0.0, 0.0, 1.0]]),
            BOX_MIN, BOX_MAX, far=3.0)
        assert not hit[0]

    def test_ray_pointing_away(self):
        _, _, hit = intersect_aabb(
            np.array([[0.0, 0.0, -5.0]]), np.array([[0.0, 0.0, -1.0]]),
            BOX_MIN, BOX_MAX, near=0.0)
        assert not hit[0]

    @settings(max_examples=40, deadline=None)
    @given(
        ox=st.floats(-4, 4), oy=st.floats(-4, 4), oz=st.floats(-4, 4),
        dx=st.floats(-1, 1), dy=st.floats(-1, 1), dz=st.floats(-1, 1),
    )
    def test_entry_point_is_inside_box(self, ox, oy, oz, dx, dy, dz):
        direction = np.array([dx, dy, dz])
        norm = np.linalg.norm(direction)
        if norm < 1e-3:
            return
        direction = direction / norm
        origin = np.array([ox, oy, oz])
        t_near, t_far, hit = intersect_aabb(origin[None], direction[None],
                                            BOX_MIN, BOX_MAX, near=0.0)
        if hit[0]:
            mid = origin + 0.5 * (t_near[0] + t_far[0]) * direction
            assert (mid >= BOX_MIN - 1e-6).all()
            assert (mid <= BOX_MAX + 1e-6).all()


class TestRayBundle:
    """The camera's flat ray bundles: what sparse renders gather from."""

    @pytest.fixture
    def camera(self):
        return PinholeCamera(Intrinsics.from_fov(8, 8, 45.0),
                             look_at([0, 0, -3], [0, 0, 0]))

    def test_from_camera_counts(self, camera):
        origins, directions = camera.generate_rays()
        origins, directions = origins.reshape(-1, 3), directions.reshape(-1, 3)
        assert origins.shape == directions.shape == (64, 3)
        np.testing.assert_allclose(origins,
                                   np.broadcast_to(camera.position, (64, 3)))
        np.testing.assert_allclose(
            np.linalg.norm(directions, axis=1), 1.0, atol=1e-12)

    def test_from_camera_pixels_matches_full(self, camera):
        _, full = camera.generate_rays()
        subset_ids = np.array([0, 13, 37, 63])
        np.testing.assert_array_equal(camera.pixel_directions(subset_ids),
                                      full.reshape(-1, 3)[subset_ids])
