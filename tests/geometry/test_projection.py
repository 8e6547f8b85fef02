"""Tests for projection and the z-buffer resolve (SPARW step 3)."""

import numpy as np
import pytest

from repro.geometry import Intrinsics
from repro.geometry.projection import nearest_source, project_to_pixels


@pytest.fixture
def intrinsics():
    return Intrinsics.from_fov(16, 16, 60.0)


def _point_at_pixel(intrinsics, u, v, depth):
    x = (u - intrinsics.cx) / intrinsics.fx * depth
    y = (v - intrinsics.cy) / intrinsics.fy * depth
    return [x, y, depth]


class TestSplatBasics:
    def test_single_point_lands_on_pixel(self, intrinsics):
        point = _point_at_pixel(intrinsics, 5.5, 7.5, 2.0)
        pixel = project_to_pixels(np.array([point]), intrinsics)
        assert pixel.tolist() == [7 * 16 + 5]

    def test_uncovered_pixels_have_no_source(self):
        source = nearest_source(np.zeros(0, dtype=np.int64), np.zeros(0),
                                np.zeros(0, dtype=np.int64), 256)
        assert source.shape == (256,)
        assert (source == -1).all()

    def test_point_behind_camera_ignored(self, intrinsics):
        pixel = project_to_pixels(np.array([[0.0, 0.0, -1.0]]), intrinsics)
        assert pixel.tolist() == [-1]

    def test_point_outside_frustum_ignored(self, intrinsics):
        point = _point_at_pixel(intrinsics, 100.0, 7.5, 2.0)
        assert project_to_pixels(np.array([point]), intrinsics).tolist() == [-1]

    def test_valid_mask_filters(self, intrinsics):
        points = np.array([_point_at_pixel(intrinsics, 5.5, 5.5, 2.0),
                           _point_at_pixel(intrinsics, 9.5, 9.5, 2.0)])
        valid = np.array([True, False])
        pixel = project_to_pixels(points, intrinsics, valid=valid)
        assert pixel.tolist() == [5 * 16 + 5, -1]


class TestZBuffer:
    def test_nearest_point_wins(self, intrinsics):
        # The near point (index 1) must survive regardless of input order.
        pixel = np.array([8 * 16 + 8, 8 * 16 + 8])
        for z, winner in (([5.0, 1.0], 1), ([1.0, 5.0], 0)):
            source = nearest_source(pixel, np.array(z), np.arange(2), 256)
            assert source[8 * 16 + 8] == winner
            assert (np.delete(source, 8 * 16 + 8) == -1).all()

    def test_order_independence(self, intrinsics):
        rng = np.random.default_rng(3)
        pixel = rng.integers(0, 16, size=50)  # about three points per pixel
        z = rng.uniform(1.0, 5.0, size=50)
        src = np.arange(50)
        perm = rng.permutation(50)
        np.testing.assert_array_equal(
            nearest_source(pixel, z, src, 16),
            nearest_source(pixel[perm], z[perm], src[perm], 16))

    def test_source_index_points_to_winner(self, intrinsics):
        # Among equal depths the later-arriving point wins.
        pixel = np.array([4 * 16 + 4] * 3)
        source = nearest_source(pixel, np.array([2.0, 1.5, 1.5]),
                                np.array([7, 8, 9]), 256)
        assert source[4 * 16 + 4] == 9
