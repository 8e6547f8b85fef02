"""Tests for the ground-truth sphere tracer."""

import numpy as np
import pytest

from repro.geometry import Intrinsics, PinholeCamera, look_at
from repro.scenes import Material, RayTracer, Scene, SceneObject, Sphere
from repro.scenes.scene import solid_albedo


@pytest.fixture(scope="module")
def sphere_scene():
    return Scene(objects=[
        SceneObject(Sphere(center=[0.0, 0.0, 0.0], radius=1.0),
                    Material(albedo=solid_albedo([1.0, 0.0, 0.0]))),
    ])


@pytest.fixture(scope="module")
def tracer(sphere_scene):
    return RayTracer(sphere_scene)


class TestTrace:
    def test_center_ray_hits_at_correct_distance(self, tracer):
        t, hit = tracer.trace(np.array([[0.0, 0.0, -5.0]]),
                              np.array([[0.0, 0.0, 1.0]]))
        assert hit[0]
        assert t[0] == pytest.approx(4.0, abs=5e-3)

    def test_miss(self, tracer):
        _, hit = tracer.trace(np.array([[0.0, 5.0, -5.0]]),
                              np.array([[0.0, 0.0, 1.0]]))
        assert not hit[0]

    def test_max_distance_respected(self, sphere_scene):
        tracer = RayTracer(sphere_scene)
        tracer.max_distance = 2.0
        _, hit = tracer.trace(np.array([[0.0, 0.0, -5.0]]),
                              np.array([[0.0, 0.0, 1.0]]))
        assert not hit[0]


class TestRenderFrame:
    @pytest.fixture(scope="class")
    def frame(self, tracer):
        camera = PinholeCamera(Intrinsics.from_fov(32, 32, 45.0),
                               look_at([0.0, 0.0, -4.0], [0.0, 0.0, 0.0]))
        return tracer.render(camera)

    def test_center_pixel_hits_sphere(self, frame):
        assert frame.hit[16, 16]
        np.testing.assert_allclose(frame.image[16, 16],
                                   frame.image[16, 16].clip(0, 1))

    def test_corner_pixel_is_background(self, frame):
        assert not frame.hit[0, 0]
        assert np.isinf(frame.depth[0, 0])

    def test_depth_at_center(self, frame):
        # Camera at z=-4, sphere front at z=-1 -> z-depth 3.
        assert frame.depth[16, 16] == pytest.approx(3.0, abs=0.02)

    def test_depth_increases_toward_silhouette(self, frame):
        center = frame.depth[16, 16]
        ys, xs = np.nonzero(frame.hit)
        edge_idx = np.argmax(np.abs(xs - 16))
        assert frame.depth[ys[edge_idx], xs[edge_idx]] > center

    def test_hit_region_roughly_circular(self, frame):
        # Sphere of radius 1 at distance 4 with 45 deg fov covers ~a quarter
        # of the image width; just sanity-bound the hit fraction.
        assert 0.05 < frame.hit.mean() < 0.6
