"""Property tests on the decode path: linearity, bake/decode consistency."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from instruments import diffuse_radiance
from repro.nerf import SHDecoder

floats = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)


class TestDecodeProperties:
    @settings(max_examples=25, deadline=None)
    @given(r=floats, g=floats, b=floats)
    def test_diffuse_linearity(self, r, g, b):
        """Without SH coefficients, rgb is the clipped diffuse channels."""
        decoder = SHDecoder(feature_dim=16, max_density=800.0)
        features = np.zeros((1, 16))
        features[0, 1:4] = [r, g, b]
        _, rgb = decoder.decode(features, np.array([[0.0, 0.0, 1.0]]))
        np.testing.assert_allclose(rgb[0], np.clip([r, g, b], 0.0, 1.0),
                                   atol=1e-9)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 500))
    def test_view_average_of_sh_is_diffuse(self, seed):
        """Linear SH integrates to zero over the sphere: the mean decoded
        color over antipodal direction pairs equals the diffuse color."""
        rng = np.random.default_rng(seed)
        decoder = SHDecoder(feature_dim=16, max_density=800.0)
        features = np.zeros((1, 16))
        features[0, 1:4] = rng.uniform(0.2, 0.8, 3)
        features[0, 4:13] = rng.uniform(-0.1, 0.1, 9)
        d = rng.normal(size=3)
        d /= np.linalg.norm(d)
        _, rgb_a = decoder.decode(features, d[None])
        _, rgb_b = decoder.decode(features, -d[None])
        np.testing.assert_allclose((rgb_a + rgb_b)[0] / 2, features[0, 1:4],
                                   atol=1e-9)

    def test_density_monotone_in_logit(self):
        decoder = SHDecoder(feature_dim=16, max_density=500.0)
        logits = np.linspace(-10, 10, 21)
        features = np.zeros((21, 16))
        features[:, 0] = logits
        sigma = decoder.density(features)
        assert (np.diff(sigma) > 0).all()
        assert sigma.max() < 500.0

    def test_decode_density_consistent_with_density_helper(self):
        decoder = SHDecoder(feature_dim=16, max_density=800.0)
        rng = np.random.default_rng(0)
        features = rng.normal(size=(50, 16))
        dirs = rng.normal(size=(50, 3))
        sigma_full, _ = decoder.decode(features, dirs)
        sigma_only = decoder.density(features)
        np.testing.assert_allclose(sigma_full, sigma_only, atol=1e-9)


class TestBakeDecodeRoundtrip:
    def test_vertex_color_roundtrip(self, lego_scene, small_field):
        """Decoded diffuse at near-surface vertices matches the scene."""
        from repro.nerf.baking import vertex_grid_positions
        positions = vertex_grid_positions(lego_scene.bounds, 32)
        d = np.abs(lego_scene.distance(positions))
        near = np.nonzero(d < 0.01)[0][:200]
        if near.size == 0:
            pytest.skip("no vertices on the surface at this resolution")
        features = small_field.vertex_features[near]
        # With zero SH (diffuse lego), rgb == diffuse == scene shading.
        _, rgb = small_field.decoder.decode(
            features, np.tile([0.0, 0.0, 1.0], (near.size, 1)))
        expected = diffuse_radiance(lego_scene, positions[near])
        err = np.abs(rgb - expected).mean()
        assert err < 0.05

    def test_specular_scene_bakes_nonzero_sh(self):
        from repro.nerf import VoxelGridField
        from repro.scenes import get_scene
        scene = get_scene("materials")
        field = VoxelGridField.bake(scene, resolution=24, feature_dim=16, max_density=800.0)
        sh = field.vertex_features[:, 4:13]
        assert np.abs(sh).max() > 0.01, "specular scenes need SH content"

    def test_diffuse_scene_view_independent(self, small_field, lego_scene,
                                            rng):
        pts = rng.uniform(-1.0, 1.0, size=(100, 3))
        features = small_field.interpolate(pts)
        d1 = rng.normal(size=(100, 3))
        d1 /= np.linalg.norm(d1, axis=1, keepdims=True)
        _, rgb_a = small_field.decode(features, d1)
        _, rgb_b = small_field.decode(features, -d1)
        # lego is all-diffuse: decoded color may vary only through SH noise
        # fitted as ~0; demand near view-independence.
        assert np.abs(rgb_a - rgb_b).max() < 0.02
