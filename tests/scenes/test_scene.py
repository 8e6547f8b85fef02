"""Tests for scene composition, materials, and shading."""

import numpy as np
import pytest

from instruments import diffuse_radiance
from repro.scenes.scene import (
    DirectionalLight,
    Material,
    Scene,
    SceneObject,
    checker_albedo,
    noise_albedo,
    solid_albedo,
    stripe_albedo,
)
from repro.scenes.sdf import Sphere


@pytest.fixture
def two_sphere_scene():
    return Scene(objects=[
        SceneObject(Sphere(center=[-1.0, 0.0, 0.0], radius=0.5),
                    Material(albedo=solid_albedo([1.0, 0.0, 0.0])), name="red"),
        SceneObject(Sphere(center=[1.0, 0.0, 0.0], radius=0.5),
                    Material(albedo=solid_albedo([0.0, 0.0, 1.0]),
                             specular=0.5), name="blue"),
    ])


class TestAlbedos:
    def test_solid(self):
        fn = solid_albedo([0.2, 0.4, 0.6])
        out = fn(np.zeros((5, 3)))
        np.testing.assert_allclose(out, np.broadcast_to([0.2, 0.4, 0.6], (5, 3)))

    def test_checker_alternates(self):
        fn = checker_albedo([1, 1, 1], [0, 0, 0], scale=1.0)
        a = fn(np.array([[0.5, 0.5, 0.5]]))
        b = fn(np.array([[1.5, 0.5, 0.5]]))
        assert not np.allclose(a, b)

    def test_stripe_alternates_along_axis(self):
        fn = stripe_albedo([1, 0, 0], [0, 1, 0], axis=0, scale=0.5)
        a = fn(np.array([[0.25, 0.0, 0.0]]))
        b = fn(np.array([[0.75, 0.0, 0.0]]))
        assert not np.allclose(a, b)

    def test_noise_deterministic_in_seed(self):
        pts = np.random.default_rng(0).normal(size=(10, 3))
        a = noise_albedo([0.5, 0.5, 0.5], seed=3)(pts)
        b = noise_albedo([0.5, 0.5, 0.5], seed=3)(pts)
        np.testing.assert_allclose(a, b)

    def test_noise_in_gamut(self):
        pts = np.random.default_rng(1).uniform(-3, 3, size=(200, 3))
        out = noise_albedo([0.5, 0.5, 0.5], amplitude=0.4)(pts)
        assert (out >= 0.0).all() and (out <= 1.0).all()


class TestSceneGeometry:
    def test_distance_is_min_over_objects(self, two_sphere_scene):
        d = two_sphere_scene.distance(np.array([[-1.0, 0.0, 0.0],
                                                [1.0, 0.0, 0.0]]))
        np.testing.assert_allclose(d, [-0.5, -0.5])

    def test_object_index(self, two_sphere_scene):
        idx = two_sphere_scene.object_index(np.array([[-1.0, 0.0, 0.0],
                                                      [1.0, 0.0, 0.0]]))
        np.testing.assert_array_equal(idx, [0, 1])

    def test_normals_point_outward(self, two_sphere_scene):
        p = np.array([[-1.0, 0.51, 0.0]])
        n = two_sphere_scene.normals(p)
        assert n[0, 1] > 0.9


class TestShading:
    def test_diffuse_is_view_independent(self, two_sphere_scene):
        p = np.array([[-1.0, 0.5, 0.0]])
        a = diffuse_radiance(two_sphere_scene, p)
        b = diffuse_radiance(two_sphere_scene, p)
        np.testing.assert_allclose(a, b)

    def test_specular_depends_on_view(self, two_sphere_scene):
        p = np.array([[1.0, 0.5, 0.0]])  # on the specular blue sphere
        n = two_sphere_scene.normals(p)
        view_a = np.array([[0.0, -1.0, 0.0]])
        view_b = np.array([[0.7, -0.7, 0.0]])
        shade_a = two_sphere_scene.shade(p, n, view_a)
        shade_b = two_sphere_scene.shade(p, n, view_b)
        assert not np.allclose(shade_a, shade_b)

    def test_diffuse_surface_is_view_independent_in_shade(self, two_sphere_scene):
        p = np.array([[-1.0, 0.5, 0.0]])  # diffuse red sphere
        n = two_sphere_scene.normals(p)
        shade_a = two_sphere_scene.shade(p, n, np.array([[0.0, -1.0, 0.0]]))
        shade_b = two_sphere_scene.shade(p, n, np.array([[0.7, -0.7, 0.0]]))
        np.testing.assert_allclose(shade_a, shade_b, atol=1e-12)

    def test_shade_clipped_to_gamut(self, two_sphere_scene):
        rng = np.random.default_rng(2)
        p = rng.uniform(-1.5, 1.5, size=(100, 3))
        n = two_sphere_scene.normals(p)
        v = n * -1.0
        out = two_sphere_scene.shade(p, n, v)
        assert (out >= 0.0).all() and (out <= 1.0).all()

    def test_light_direction_normalized(self):
        light = DirectionalLight(direction=[0.0, -2.0, 0.0])
        np.testing.assert_allclose(light.direction, [0.0, -1.0, 0.0])

    def test_background_gradient(self, two_sphere_scene):
        up = two_sphere_scene.background(np.array([[0.0, -1.0, 0.0]]))
        down = two_sphere_scene.background(np.array([[0.0, 1.0, 0.0]]))
        assert not np.allclose(up, down)
