"""Tests for ray sampling and occupancy skipping."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from reference_kernels import sample_reference

from instruments import occupancy_rate
from repro.geometry import Intrinsics, PinholeCamera, look_at
from repro.geometry.rays import intersect_aabb
from repro.nerf import OccupancyGrid, UniformSampler

BOUNDS = (np.array([-1.0, -1.0, -1.0]), np.array([1.0, 1.0, 1.0]))


@pytest.fixture(scope="module")
def small_grid(small_field):
    return OccupancyGrid.from_field(small_field, resolution=24)


class TestUniformSampler:
    def test_sample_count_for_hitting_ray(self):
        sampler = UniformSampler(num_samples=32)
        samples = sampler.sample(np.array([[0.0, 0.0, -3.0]]),
                                 np.array([[0.0, 0.0, 1.0]]), BOUNDS)
        assert len(samples) == 32
        assert samples.num_rays == 1

    def test_missing_ray_has_no_samples(self):
        sampler = UniformSampler(num_samples=32)
        samples = sampler.sample(np.array([[0.0, 5.0, -3.0]]),
                                 np.array([[0.0, 0.0, 1.0]]), BOUNDS)
        assert len(samples) == 0

    def test_positions_inside_bounds(self):
        sampler = UniformSampler(num_samples=64)
        rng = np.random.default_rng(0)
        origins = rng.uniform(-3, 3, size=(20, 3))
        dirs = rng.normal(size=(20, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        samples = sampler.sample(origins, dirs, BOUNDS)
        lo, hi = BOUNDS
        assert (samples.positions >= lo - 1e-6).all()
        assert (samples.positions <= hi + 1e-6).all()

    def test_t_values_sorted_within_ray(self):
        sampler = UniformSampler(num_samples=16)
        samples = sampler.sample(np.array([[0.0, 0.0, -3.0]]),
                                 np.array([[0.0, 0.0, 1.0]]), BOUNDS)
        assert (np.diff(samples.t_values) > 0).all()

    def test_deterministic_without_jitter(self):
        sampler = UniformSampler(num_samples=16)
        a = sampler.sample(np.array([[0.0, 0.0, -3.0]]),
                           np.array([[0.0, 0.0, 1.0]]), BOUNDS)
        b = sampler.sample(np.array([[0.0, 0.0, -3.0]]),
                           np.array([[0.0, 0.0, 1.0]]), BOUNDS)
        np.testing.assert_allclose(a.positions, b.positions)

    def test_deltas_cover_span(self):
        sampler = UniformSampler(num_samples=10)
        samples = sampler.sample(np.array([[0.0, 0.0, -3.0]]),
                                 np.array([[0.0, 0.0, 1.0]]), BOUNDS)
        # Span through the box is 2.0 -> delta = 0.2 each.
        np.testing.assert_allclose(samples.deltas, 0.2, atol=1e-9)

    def test_ray_index_maps_back(self):
        sampler = UniformSampler(num_samples=8)
        origins = np.array([[0.0, 0.0, -3.0], [0.0, 5.0, -3.0],
                            [0.1, 0.0, -3.0]])
        dirs = np.tile([0.0, 0.0, 1.0], (3, 1))
        samples = sampler.sample(origins, dirs, BOUNDS)
        assert set(np.unique(samples.ray_index)) == {0, 2}


class TestOccupancyGrid:
    def test_from_field_culls_empty_space(self, small_field):
        grid = OccupancyGrid.from_field(small_field, resolution=24)
        assert 0.0 < occupancy_rate(grid) < 0.6

    def test_occupied_lookup_shapes(self, small_field):
        grid = OccupancyGrid.from_field(small_field, resolution=24)
        pts = np.random.default_rng(0).uniform(-1.4, 1.4, size=(100, 3))
        occ = grid.occupied(pts)
        assert occ.shape == (100,)
        assert occ.dtype == bool

    def test_surface_points_occupied(self, small_field, lego_scene):
        grid = OccupancyGrid.from_field(small_field, resolution=24)
        rng = np.random.default_rng(1)
        pts = rng.uniform(-1.4, 1.4, size=(20000, 3))
        near = pts[np.abs(lego_scene.distance(pts)) < 0.02]
        assert grid.occupied(near).mean() > 0.95

    def test_sampler_with_occupancy_reduces_samples(self, small_field):
        origins = np.array([[3.0, 1.0, 0.5]])
        dirs = np.array([[-0.9, -0.3, -0.15]])
        dirs = dirs / np.linalg.norm(dirs)
        plain = UniformSampler(64).sample(origins, dirs, small_field.bounds)
        grid = OccupancyGrid.from_field(small_field, resolution=24)
        culled = UniformSampler(64, occupancy=grid).sample(
            origins, dirs, small_field.bounds)
        assert 0 < len(culled) < len(plain)

    @pytest.mark.parametrize("shape", [(8, 8, 4), (8, 8), (4, 8, 8, 8)])
    def test_rejects_mask_that_is_not_a_cube(self, shape):
        with pytest.raises(ValueError, match="3-D and cubic"):
            OccupancyGrid(np.ones(shape, dtype=bool), BOUNDS)

    def test_empty_grid_keeps_no_sample(self):
        grid = OccupancyGrid(np.zeros((8, 8, 8), dtype=bool), BOUNDS)
        assert grid.occupied_box is None
        origins = np.array([[0.0, 0.0, -3.0], [0.2, 0.1, -3.0]])
        dirs = np.tile([0.0, 0.0, 1.0], (2, 1))
        samples = UniformSampler(16, occupancy=grid).sample(origins, dirs,
                                                            BOUNDS)
        assert len(samples) == 0
        assert samples.num_rays == 2
        assert samples.positions.shape == (0, 3)

    def test_occupied_box_pads_by_one_cell_and_opens_at_grid_edges(self):
        mask = np.zeros((8, 8, 8), dtype=bool)
        mask[0:2, 3:5, 6:8] = True  # touches the low x and the high z edge
        lo, hi = OccupancyGrid(mask, BOUNDS).occupied_box
        np.testing.assert_array_equal(lo, [-np.inf, -0.5, 0.25])
        np.testing.assert_array_equal(hi, [-0.25, 0.5, np.inf])

    @settings(max_examples=40, deadline=None)
    @given(eye=st.tuples(*[st.floats(-4.0, 4.0)] * 3),
           target=st.tuples(*[st.floats(-1.0, 1.0)] * 3),
           fov=st.floats(20.0, 100.0))
    def test_culled_rays_keep_nothing_in_reference(self, small_field,
                                                   small_grid, eye, target,
                                                   fov):
        """No ray the occupied-box cull drops has a kept reference sample."""
        assume(np.linalg.norm(np.subtract(eye, target)) > 1e-3)
        pose = look_at(list(eye), list(target))
        assume(np.isfinite(pose).all())
        camera = PinholeCamera(Intrinsics.from_fov(12, 12, fov), pose)
        origins, directions = camera.generate_rays()
        origins = origins.reshape(-1, 3)
        directions = directions.reshape(-1, 3)
        want = sample_reference(UniformSampler(32, occupancy=small_grid),
                                origins, directions, small_field.bounds)
        box_hit = intersect_aabb(origins, directions,
                                 *small_grid.occupied_box)[2]
        assert box_hit[np.unique(want.ray_index)].all()
