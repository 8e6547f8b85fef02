"""Tests for the procedural scene library."""

import numpy as np
import pytest

from instruments import diffuse_radiance
from repro.scenes import REAL_WORLD_SCENES, SYNTHETIC_SCENES, get_scene


class TestLibrary:
    def test_eight_synthetic_scenes(self):
        assert len(SYNTHETIC_SCENES) == 8

    def test_two_real_world_scenes(self):
        assert set(REAL_WORLD_SCENES) == {"bonsai", "ignatius"}

    def test_unknown_scene_raises(self):
        with pytest.raises(KeyError):
            get_scene("nonexistent")

    @pytest.mark.parametrize("name", sorted(SYNTHETIC_SCENES))
    def test_synthetic_scene_is_well_formed(self, name):
        scene = get_scene(name)
        assert scene.name == name
        assert len(scene.objects) >= 1
        lo, hi = scene.bounds
        assert (hi > lo).all()

    @pytest.mark.parametrize("name", sorted(SYNTHETIC_SCENES))
    def test_geometry_inside_bounds(self, name):
        """Every scene must have solid content strictly inside its AABB."""
        scene = get_scene(name)
        rng = np.random.default_rng(0)
        lo, hi = scene.bounds
        pts = rng.uniform(lo, hi, size=(4000, 3))
        d = scene.distance(pts)
        assert (d < 0).any(), "scene has no interior volume"

    @pytest.mark.parametrize("name", sorted(REAL_WORLD_SCENES))
    def test_real_world_scenes_have_specular(self, name):
        scene = get_scene(name)
        assert any(obj.material.specular > 0.0 for obj in scene.objects)

    def test_scenes_are_deterministic(self):
        a = get_scene("ficus")
        b = get_scene("ficus")
        pts = np.random.default_rng(1).uniform(-1.5, 1.5, size=(100, 3))
        np.testing.assert_allclose(a.distance(pts), b.distance(pts))
        np.testing.assert_allclose(diffuse_radiance(a, pts),
                                   diffuse_radiance(b, pts))

    def test_materials_scene_spans_specular_range(self):
        scene = get_scene("materials")
        speculars = sorted(obj.material.specular for obj in scene.objects)
        assert speculars[0] == 0.0
        assert speculars[-1] >= 0.5
