"""Tests for the three radiance-field families and the shared decoder."""

import numpy as np
import pytest

from repro.harness.configs import FAST
from repro.nerf import (
    HashGridField,
    SHDecoder,
    TensorFactorField,
    VoxelGridField,
)
from repro.nerf.baking import bake_vertex_features, vertex_grid_positions
from repro.scenes import get_scene


class _CountingSDF:
    """Proxy counting the calls (and points) an object's SDF receives."""

    def __init__(self, sdf):
        self.sdf = sdf
        self.calls = 0
        self.points = 0

    def distance(self, points):
        self.calls += 1
        self.points += points.size // 3
        return self.sdf.distance(points)


def _counted_bake(scene_name):
    scene = get_scene(scene_name)
    for obj in scene.objects:
        obj.sdf = _CountingSDF(obj.sdf)
    VoxelGridField.bake(scene, resolution=FAST.grid_resolution,
                        feature_dim=FAST.feature_dim,
                        density_sharpness=FAST.density_sharpness,
                        max_density=FAST.max_density)
    return [obj.sdf for obj in scene.objects]


@pytest.fixture(scope="module")
def scene():
    return get_scene("lego")


@pytest.fixture(scope="module")
def reference(scene):
    return VoxelGridField.bake(scene, resolution=32, feature_dim=16, max_density=800.0)


@pytest.fixture(scope="module")
def surface_points(scene):
    rng = np.random.default_rng(0)
    pts = rng.uniform(-1.4, 1.4, size=(30000, 3))
    d = scene.distance(pts)
    return pts[np.abs(d) < 0.05][:500]


class TestSHDecoder:
    def test_rejects_small_feature_dim(self):
        with pytest.raises(ValueError):
            SHDecoder(feature_dim=4, max_density=800.0)

    def test_decode_shapes(self):
        decoder = SHDecoder(feature_dim=16, max_density=800.0)
        sigma, rgb = decoder.decode(np.zeros((7, 16)), np.ones((7, 3)))
        assert sigma.shape == (7,)
        assert rgb.shape == (7, 3)

    def test_density_sigmoid_of_logit(self):
        decoder = SHDecoder(feature_dim=16, max_density=100.0)
        features = np.zeros((3, 16))
        features[0, 0] = 40.0
        features[1, 0] = 0.0
        features[2, 0] = -40.0
        sigma, _ = decoder.decode(features, np.tile([0.0, 0.0, 1.0], (3, 1)))
        assert sigma[0] == pytest.approx(100.0, rel=1e-6)
        assert sigma[1] == pytest.approx(50.0)
        assert sigma[2] == pytest.approx(0.0, abs=1e-6)

    def test_diffuse_passthrough(self):
        decoder = SHDecoder(feature_dim=16, max_density=800.0)
        features = np.zeros((1, 16))
        features[0, 1:4] = [0.2, 0.4, 0.6]
        _, rgb = decoder.decode(features, np.array([[0.0, 0.0, 1.0]]))
        np.testing.assert_allclose(rgb[0], [0.2, 0.4, 0.6], atol=1e-9)

    def test_sh_coefficients_add_view_dependence(self):
        decoder = SHDecoder(feature_dim=16, max_density=800.0)
        features = np.zeros((1, 16))
        features[0, 1:4] = 0.5
        features[0, 4:13] = 0.3  # uniform linear-SH coefficients
        _, rgb_a = decoder.decode(features, np.array([[0.0, 0.0, 1.0]]))
        _, rgb_b = decoder.decode(features, np.array([[0.0, 0.0, -1.0]]))
        assert not np.allclose(rgb_a, rgb_b)

    def test_mac_count_positive(self):
        assert SHDecoder(feature_dim=16, max_density=800.0).macs_per_sample() > 0


class TestBaking:
    def test_vertex_positions_count_and_order(self, scene):
        positions = vertex_grid_positions(scene.bounds, 4)
        assert positions.shape == (125, 3)
        lo, hi = scene.bounds
        np.testing.assert_allclose(positions[0], lo)
        np.testing.assert_allclose(positions[-1], hi)

    def test_logit_sign_tracks_sdf(self, scene):
        inside = np.array([[0.35, 0.05, 0.0]])  # inside the tower box
        outside = np.array([[0.0, 1.4, 1.4]])
        features = bake_vertex_features(scene, np.vstack([inside, outside]), 16,
                                        density_sharpness=200.0)
        assert features[0, 0] > 0.0
        assert features[1, 0] < 0.0

    def test_rejects_small_feature_dim(self, scene):
        with pytest.raises(ValueError):
            bake_vertex_features(scene, np.zeros((2, 3)), feature_dim=4)

    def test_color_only_near_surface(self, scene):
        far = np.array([[1.45, 1.45, 1.45]])
        features = bake_vertex_features(scene, far, 16, shell_width=0.01)
        np.testing.assert_allclose(features[0, 1:4], 0.0)

    def test_a_bake_costs_one_geometry_pass_per_shell_vertex(self):
        """Clock-free guard: per object, a bake evaluates the SDF once on
        the lattice and seven times on the shell (one nearest-object query,
        six central-difference steps) — specular scene or not.  Re-deriving
        the geometry per probe direction made that 33 calls."""
        specular = _counted_bake("ignatius")
        diffuse = _counted_bake("lego")
        lattice = (FAST.grid_resolution + 1) ** 3
        for sdf in specular + diffuse:
            assert sdf.calls <= 8
            # ... and the seven shell calls are over the shell only.
            assert sdf.points < 3 * lattice
        assert max(s.calls for s in diffuse) <= max(s.calls for s in specular)


class TestVoxelGridField:
    def test_model_size_accounts_grid_and_mlp(self, reference):
        vertices = (32 + 1) ** 3
        expected_grid = vertices * reference.entry_bytes
        assert reference.model_size_bytes > expected_grid
        assert reference.model_size_bytes < expected_grid * 1.1

    def test_interpolation_matches_bake_at_vertices(self, scene, reference):
        positions = vertex_grid_positions(scene.bounds, 32)
        idx = np.random.default_rng(1).choice(len(positions), 64)
        interp = reference.interpolate(positions[idx])
        np.testing.assert_allclose(interp, reference.vertex_features[idx],
                                   atol=1e-9)

    def test_gather_plan_single_streamable_group(self, reference):
        pts = np.random.default_rng(2).uniform(-1.0, 1.0, size=(50, 3))
        groups = reference.gather_plan(pts)
        assert len(groups) == 1
        assert groups[0].streamable
        assert groups[0].vertex_ids.shape == (50, 8)
        np.testing.assert_allclose(groups[0].weights.sum(axis=1), 1.0)

    def test_wrong_vertex_count_rejected(self, scene):
        with pytest.raises(ValueError):
            VoxelGridField(np.zeros((10, 16)), resolution=32,
                           bounds=scene.bounds,
                           decoder=SHDecoder(16, max_density=800.0))

    def test_density_positive_near_surface(self, reference, surface_points):
        features = reference.interpolate(surface_points)
        sigma = reference.decoder.density(features)
        assert (sigma > 1.0).mean() > 0.8


class TestHashGridField:
    @pytest.fixture(scope="class")
    def field(self, scene, reference):
        return HashGridField.bake(scene, num_levels=4, finest_resolution=32, table_size=1 << 12,
                                  reference=reference)

    def test_level_structure(self, field):
        resolutions = [level.resolution for level in field.levels]
        assert resolutions == sorted(resolutions)
        assert field.levels[0].dense  # coarse level fits its table
        assert not field.levels[-1].dense  # finest level is hashed

    def test_gather_plan_one_group_per_level(self, field):
        pts = np.random.default_rng(3).uniform(-1.0, 1.0, size=(20, 3))
        groups = field.gather_plan(pts)
        assert len(groups) == len(field.levels)
        hashed = [g for g in groups if not g.streamable]
        assert hashed, "expected at least one reverted (hashed) level"

    def test_hashed_slots_within_table(self, field):
        pts = np.random.default_rng(4).uniform(-1.4, 1.4, size=(200, 3))
        for group, level in zip(field.gather_plan(pts), field.levels):
            assert (group.vertex_ids >= 0).all()
            assert (group.vertex_ids < level.num_entries).all()

    def test_reconstruction_tracks_reference(self, field, reference,
                                             surface_points):
        target = reference.interpolate(surface_points)
        approx = field.interpolate(surface_points)
        # Hash collisions make this lossy; demand correlation, not equality.
        corr = np.corrcoef(target[:, 0], approx[:, 0])[0, 1]
        assert corr > 0.9

    def test_model_smaller_than_dense_equivalent(self, scene, field):
        dense = VoxelGridField.bake(scene, resolution=32, feature_dim=16, max_density=800.0)
        assert field.model_size_bytes < dense.model_size_bytes * 2


class TestTensorFactorField:
    @pytest.fixture(scope="class")
    def field(self, scene, reference):
        return TensorFactorField.bake(scene, reference, rank_per_mode=16)

    def test_three_modes(self, field):
        assert len(field.modes) == 3
        assert field.rank == 16

    def test_gather_plan_planes_and_vectors(self, field):
        pts = np.random.default_rng(5).uniform(-1.0, 1.0, size=(30, 3))
        groups = field.gather_plan(pts)
        assert len(groups) == 6
        plane_groups = [g for g in groups if g.name.startswith("plane")]
        vector_groups = [g for g in groups if g.name.startswith("vector")]
        assert len(plane_groups) == 3 and len(vector_groups) == 3
        assert plane_groups[0].vertex_ids.shape[1] == 4
        assert vector_groups[0].vertex_ids.shape[1] == 2

    def test_compression(self, field, reference):
        assert field.model_size_bytes < reference.model_size_bytes / 3

    def test_reconstruction_tracks_reference(self, field, reference,
                                             surface_points):
        target = reference.interpolate(surface_points)
        approx = field.interpolate(surface_points)
        corr = np.corrcoef(target[:, 0], approx[:, 0])[0, 1]
        assert corr > 0.9

    def test_wrong_mode_count_rejected(self, field, scene):
        with pytest.raises(ValueError):
            TensorFactorField(field.modes[:2], scene.bounds, field.decoder)
